package pmem

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func testDevice(t *testing.T, cap int64) *Device {
	t.Helper()
	d, err := Open(Config{Capacity: cap, TrackWear: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return d
}

func TestOpenValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"zero capacity", Config{}},
		{"negative capacity", Config{Capacity: -1}},
		{"non power-of-two cacheline", Config{Capacity: 1024, CachelineSize: 96}},
		{"tiny cacheline", Config{Capacity: 1024, CachelineSize: 4}},
		{"negative latency", Config{Capacity: 1024, ReadLatency: -time.Nanosecond}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Open(tc.cfg); err == nil {
				t.Fatalf("Open(%+v) succeeded, want error", tc.cfg)
			}
		})
	}
}

func TestOpenDefaults(t *testing.T) {
	d := testDevice(t, 4096)
	if got := d.CachelineSize(); got != DefaultCachelineSize {
		t.Errorf("CachelineSize = %d, want %d", got, DefaultCachelineSize)
	}
	if got := d.ReadLatency(); got != DefaultReadLatency {
		t.Errorf("ReadLatency = %v, want %v", got, DefaultReadLatency)
	}
	if got := d.WriteLatency(); got != DefaultWriteLatency {
		t.Errorf("WriteLatency = %v, want %v", got, DefaultWriteLatency)
	}
	if got := d.Lambda(); got != 15 {
		t.Errorf("Lambda = %v, want 15", got)
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	d := testDevice(t, 4096)
	in := []byte("persistent memory is byte-addressable")
	if err := d.WriteAt(in, 100); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	out := make([]byte, len(in))
	if err := d.ReadAt(out, 100); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(in, out) {
		t.Fatalf("round trip mismatch: %q != %q", out, in)
	}
}

func TestOutOfRange(t *testing.T) {
	d := testDevice(t, 256)
	buf := make([]byte, 16)
	if err := d.ReadAt(buf, 250); err == nil {
		t.Error("ReadAt past end succeeded, want error")
	}
	if err := d.WriteAt(buf, -1); err == nil {
		t.Error("WriteAt negative offset succeeded, want error")
	}
	if err := d.WriteAt(make([]byte, 300), 0); err == nil {
		t.Error("WriteAt larger than device succeeded, want error")
	}
}

func TestCachelineAccounting(t *testing.T) {
	d := testDevice(t, 4096)
	cases := []struct {
		off   int64
		n     int
		lines uint64
	}{
		{0, 1, 1},      // single byte, one line
		{0, 64, 1},     // exactly one line
		{0, 65, 2},     // spills into second line
		{63, 2, 2},     // straddles a boundary
		{64, 64, 1},    // aligned second line
		{10, 80, 2},    // an 80-byte record usually touches 2 lines
		{0, 1024, 16},  // one block = 16 lines
		{32, 1024, 17}, // unaligned block touches 17
	}
	for _, tc := range cases {
		d.ResetStats()
		if err := d.WriteAt(make([]byte, tc.n), tc.off); err != nil {
			t.Fatalf("WriteAt(%d, %d): %v", tc.off, tc.n, err)
		}
		if got := d.Stats().Writes; got != tc.lines {
			t.Errorf("write [%d,+%d): %d lines, want %d", tc.off, tc.n, got, tc.lines)
		}
		d.ResetStats()
		if err := d.ReadAt(make([]byte, tc.n), tc.off); err != nil {
			t.Fatalf("ReadAt(%d, %d): %v", tc.off, tc.n, err)
		}
		if got := d.Stats().Reads; got != tc.lines {
			t.Errorf("read [%d,+%d): %d lines, want %d", tc.off, tc.n, got, tc.lines)
		}
	}
}

func TestSimIOTime(t *testing.T) {
	d := MustOpen(Config{Capacity: 4096, ReadLatency: 10 * time.Nanosecond, WriteLatency: 150 * time.Nanosecond})
	if err := d.WriteAt(make([]byte, 128), 0); err != nil { // 2 lines
		t.Fatal(err)
	}
	if err := d.ReadAt(make([]byte, 64), 0); err != nil { // 1 line
		t.Fatal(err)
	}
	want := 2*150*time.Nanosecond + 1*10*time.Nanosecond
	if got := d.Stats().SimIOTime; got != want {
		t.Errorf("SimIOTime = %v, want %v", got, want)
	}
}

func TestSimIOOverlap(t *testing.T) {
	d := MustOpen(Config{Capacity: 4096, ReadLatency: 10 * time.Nanosecond, WriteLatency: 150 * time.Nanosecond})

	// Serial: overlap clock tracks the serial clock exactly.
	if err := d.WriteAt(make([]byte, 128), 0); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.SimIOOverlap != st.SimIOTime {
		t.Errorf("serial SimIOOverlap = %v, want SimIOTime %v", st.SimIOOverlap, st.SimIOTime)
	}

	// Two registered workers: each charge advances the overlap clock by
	// half its latency.
	d.ResetStats()
	d.EnterWorker()
	d.EnterWorker()
	if err := d.ReadAt(make([]byte, 256), 0); err != nil { // 4 lines
		t.Fatal(err)
	}
	d.LeaveWorker()
	d.LeaveWorker()
	st = d.Stats()
	if want := 4 * 10 * time.Nanosecond; st.SimIOTime != want {
		t.Fatalf("SimIOTime = %v, want %v", st.SimIOTime, want)
	}
	if want := st.SimIOTime / 2; st.SimIOOverlap != want {
		t.Errorf("SimIOOverlap under 2 workers = %v, want %v", st.SimIOOverlap, want)
	}

	// Brackets closed: back to serial accounting.
	if err := d.ReadAt(make([]byte, 64), 0); err != nil { // 1 line
		t.Fatal(err)
	}
	st2 := d.Stats()
	if got, want := st2.SimIOOverlap-st.SimIOOverlap, 10*time.Nanosecond; got != want {
		t.Errorf("post-bracket overlap delta = %v, want %v", got, want)
	}
}

func TestWearTracking(t *testing.T) {
	d := testDevice(t, 1024)
	for i := 0; i < 5; i++ {
		if err := d.WriteAt(make([]byte, 64), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.WriteAt(make([]byte, 64), 512); err != nil {
		t.Fatal(err)
	}
	w := d.Wear()
	if !w.Tracked {
		t.Fatal("wear not tracked")
	}
	if w.Written != 2 {
		t.Errorf("Written = %d, want 2", w.Written)
	}
	if w.MaxWrites != 5 {
		t.Errorf("MaxWrites = %d, want 5", w.MaxWrites)
	}
	if w.MeanWrite != 3 {
		t.Errorf("MeanWrite = %v, want 3", w.MeanWrite)
	}
}

func TestStatsSubAdd(t *testing.T) {
	d := testDevice(t, 4096)
	if err := d.WriteAt(make([]byte, 64), 0); err != nil {
		t.Fatal(err)
	}
	before := d.Stats()
	if err := d.WriteAt(make([]byte, 128), 0); err != nil {
		t.Fatal(err)
	}
	delta := d.Stats().Sub(before)
	if delta.Writes != 2 {
		t.Errorf("delta.Writes = %d, want 2", delta.Writes)
	}
	sum := before.Add(delta)
	if sum != d.Stats() {
		t.Errorf("Add/Sub not inverse: %+v != %+v", sum, d.Stats())
	}
}

// Property: reading back any written range returns the written bytes, and
// the cacheline count matches the analytic formula.
func TestQuickReadBackAndLineCount(t *testing.T) {
	d := testDevice(t, 1<<16)
	f := func(off uint16, raw []byte) bool {
		if len(raw) == 0 {
			return true
		}
		o := int64(off) % (d.Capacity() - int64(len(raw)))
		if o < 0 {
			o = 0
		}
		before := d.Stats()
		if err := d.WriteAt(raw, o); err != nil {
			return false
		}
		got := make([]byte, len(raw))
		if err := d.ReadAt(got, o); err != nil {
			return false
		}
		delta := d.Stats().Sub(before)
		cls := int64(d.CachelineSize())
		wantLines := uint64((o+int64(len(raw))-1)/cls - o/cls + 1)
		return bytes.Equal(raw, got) && delta.Writes == wantLines && delta.Reads == wantLines
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEnergyAccounting(t *testing.T) {
	d := testDevice(t, 4096)
	if err := d.WriteAt(make([]byte, 64), 0); err != nil { // 1 line
		t.Fatal(err)
	}
	if err := d.ReadAt(make([]byte, 128), 0); err != nil { // 2 lines
		t.Fatal(err)
	}
	st := d.Stats()
	want := float64(DefaultWriteEnergyPJ) + 2*float64(DefaultReadEnergyPJ)
	if got := st.EnergyPJ(0, 0); got != want {
		t.Errorf("EnergyPJ = %v, want %v", got, want)
	}
	if got := st.EnergyPJ(1, 10); got != 12 {
		t.Errorf("custom EnergyPJ = %v, want 12", got)
	}
	// The asymmetry property the paper leans on: a write-heavy profile
	// costs more energy than a read-heavy one of equal line count.
	writeHeavy := Stats{Reads: 0, Writes: 100}
	readHeavy := Stats{Reads: 100, Writes: 0}
	if writeHeavy.EnergyPJ(0, 0) <= readHeavy.EnergyPJ(0, 0) {
		t.Error("write energy not above read energy")
	}
}

func TestZeroLengthAccess(t *testing.T) {
	d := testDevice(t, 256)
	if err := d.WriteAt(nil, 0); err != nil {
		t.Fatalf("zero-length write: %v", err)
	}
	if err := d.ReadAt(nil, 256); err != nil { // at end, zero length: legal
		t.Fatalf("zero-length read at end: %v", err)
	}
	st := d.Stats()
	if st.Reads != 0 || st.Writes != 0 {
		t.Errorf("zero-length access counted lines: %+v", st)
	}
}

// TestSpinChargeYields checks both spin paths: short charges busy-wait
// (yielding), long charges sleep — and both account the simulated clock
// while wall time stays the same order as the charge, not a livelock.
func TestSpinChargeYields(t *testing.T) {
	d := MustOpen(Config{
		Capacity:     1 << 20,
		Spin:         true,
		ReadLatency:  50 * time.Nanosecond,   // short path: 64 B read = 50 ns spin
		WriteLatency: 200 * time.Microsecond, // long path: ≥ spinSleepThreshold, sleeps
	})
	buf := make([]byte, 64)
	start := time.Now()
	if err := d.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	st := d.Stats()
	want := 50*time.Nanosecond + 200*time.Microsecond
	if st.SimIOTime != want {
		t.Errorf("SimIOTime = %v, want %v", st.SimIOTime, want)
	}
	if elapsed < 200*time.Microsecond {
		t.Errorf("spin mode returned after %v, before the charged %v", elapsed, want)
	}
	if elapsed > 500*time.Millisecond {
		t.Errorf("spin mode took %v for a %v charge", elapsed, want)
	}
}

// TestSpinChargeConcurrent drives a spinning device from many goroutines;
// with the yielding loop this completes promptly even on one core.
func TestSpinChargeConcurrent(t *testing.T) {
	d := MustOpen(Config{Capacity: 1 << 20, Spin: true})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 512)
			off := int64(g) * 1024
			for i := 0; i < 50; i++ {
				if err := d.WriteAt(buf, off); err != nil {
					t.Error(err)
					return
				}
				if err := d.ReadAt(buf, off); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := d.Stats(); st.Writes != 8*50*8 {
		t.Errorf("writes = %d, want %d", st.Writes, 8*50*8)
	}
}

// TestViewChargesLikeReadAt: a view is the device bytes of its range,
// capped at its length, and charges exactly what ReadAt of the same
// range charges — lines, operations, bytes and both clocks, serially
// and under an overlap bracket.
func TestViewChargesLikeReadAt(t *testing.T) {
	d := MustOpen(Config{Capacity: 4096})
	img := make([]byte, 4096)
	for i := range img {
		img[i] = byte(i * 7)
	}
	if err := d.WriteAt(img, 0); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 3} {
		for _, r := range []struct {
			off int64
			n   int
		}{{0, 0}, {0, 1}, {63, 2}, {10, 80}, {32, 1024}, {4000, 96}} {
			for i := 0; i < workers; i++ {
				d.EnterWorker()
			}
			d.ResetStats()
			buf := make([]byte, r.n)
			if err := d.ReadAt(buf, r.off); err != nil {
				t.Fatal(err)
			}
			byCopy := d.Stats()
			d.ResetStats()
			v, err := d.View(r.off, r.n)
			if err != nil {
				t.Fatal(err)
			}
			byView := d.Stats()
			for i := 0; i < workers; i++ {
				d.LeaveWorker()
			}
			if byView != byCopy {
				t.Errorf("%d workers, [%d,+%d): View charged %+v, ReadAt %+v", workers, r.off, r.n, byView, byCopy)
			}
			if len(v) != r.n || cap(v) != len(v) {
				t.Errorf("[%d,+%d): view len %d cap %d, want both %d", r.off, r.n, len(v), cap(v), r.n)
			}
			if !bytes.Equal(v, img[r.off:r.off+int64(r.n)]) || !bytes.Equal(buf, v) {
				t.Errorf("[%d,+%d): view is not the device bytes", r.off, r.n)
			}
		}
	}
	d.ResetStats()
	if _, err := d.View(4000, 97); err == nil {
		t.Error("view past the end accepted")
	}
	if _, err := d.View(-1, 1); err == nil {
		t.Error("view before the start accepted")
	}
	if st := d.Stats(); st.Reads != 0 || st.ReadOps != 0 {
		t.Errorf("rejected views charged %d lines in %d ops", st.Reads, st.ReadOps)
	}
}

// TestDeviceViewAllocs: a view allocates nothing.
func TestDeviceViewAllocs(t *testing.T) {
	d := MustOpen(Config{Capacity: 1 << 20})
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := d.View(4096, 1024); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("View allocated %.0f times per call", allocs)
	}
}

// BenchmarkDeviceView is the device's read path alone: one 1 KiB block
// in place, charged, at consecutive offsets.
func BenchmarkDeviceView(b *testing.B) {
	const block = 1024
	d := MustOpen(Config{Capacity: 1 << 24})
	blocks := int(d.Capacity() / block)
	b.ReportAllocs()
	b.SetBytes(block)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.View(int64(i%blocks)*block, block); err != nil {
			b.Fatal(err)
		}
	}
}
