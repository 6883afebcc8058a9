package fsbase

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"wlpm/internal/pmem"
)

func byteFS(t *testing.T) *FS {
	t.Helper()
	dev := pmem.MustOpen(pmem.Config{Capacity: 32 << 20})
	fs, err := Format(dev, Profile{Name: "test-byte", Granularity: 1, SizeUpdateEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func sectorFS(t *testing.T) *FS {
	t.Helper()
	dev := pmem.MustOpen(pmem.Config{Capacity: 32 << 20})
	fs, err := Format(dev, Profile{Name: "test-sector", Granularity: 512, InodeWriteWhole: true})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestFormatValidation(t *testing.T) {
	tiny := pmem.MustOpen(pmem.Config{Capacity: 1 << 10})
	if _, err := Format(tiny, Profile{Name: "t", Granularity: 1}); err == nil {
		t.Error("Format on a too-small device succeeded")
	}
	dev := pmem.MustOpen(pmem.Config{Capacity: 32 << 20})
	if _, err := Format(dev, Profile{Name: "t", Granularity: 0}); err == nil {
		t.Error("zero granularity accepted")
	}
	if _, err := Format(dev, Profile{Name: "t", Granularity: 1, MinExtent: 1 << 20, MaxExtent: 1 << 10}); err == nil {
		t.Error("MinExtent > MaxExtent accepted")
	}
}

func TestCreateRemove(t *testing.T) {
	for _, mk := range []func(*testing.T) *FS{byteFS, sectorFS} {
		fs := mk(t)
		f, err := fs.Create("a")
		if err != nil {
			t.Fatal(err)
		}
		if f.Name() != "a" || f.Size() != 0 {
			t.Fatalf("fresh file: name %q size %d", f.Name(), f.Size())
		}
		if _, err := fs.Create("a"); err == nil {
			t.Error("duplicate create succeeded")
		}
		if _, err := fs.Create(""); err == nil {
			t.Error("empty name accepted")
		}
		if err := fs.Remove("a"); err != nil {
			t.Fatal(err)
		}
		if err := fs.Remove("a"); err == nil {
			t.Error("double remove succeeded")
		}
		if _, err := fs.Create("a"); err != nil {
			t.Fatalf("recreate after remove: %v", err)
		}
	}
}

func TestAppendReadBack(t *testing.T) {
	for _, mk := range []func(*testing.T) *FS{byteFS, sectorFS} {
		fs := mk(t)
		f, err := fs.Create("f")
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		var want []byte
		// Appends of awkward sizes crossing sector and extent boundaries.
		for _, n := range []int{1, 511, 512, 513, 1024, 7, 80, 4096, 100_000} {
			chunk := make([]byte, n)
			rng.Read(chunk)
			want = append(want, chunk...)
			if err := f.Append(chunk); err != nil {
				t.Fatalf("%s: append %d: %v", fs.prof.Name, n, err)
			}
		}
		if f.Size() != int64(len(want)) {
			t.Fatalf("size %d, want %d", f.Size(), len(want))
		}
		got := make([]byte, len(want))
		if err := f.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: read-back mismatch", fs.prof.Name)
		}
		// Random interior reads.
		for i := 0; i < 50; i++ {
			off := rng.Intn(len(want) - 1)
			n := rng.Intn(len(want)-off) + 1
			buf := make([]byte, n)
			if err := f.ReadAt(buf, int64(off)); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, want[off:off+n]) {
				t.Fatalf("%s: interior read [%d,+%d) mismatch", fs.prof.Name, off, n)
			}
		}
	}
}

func TestReadPastEnd(t *testing.T) {
	fs := byteFS(t)
	f, _ := fs.Create("f")
	if err := f.Append(make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := f.ReadAt(make([]byte, 10), 95); err == nil {
		t.Error("read past size succeeded")
	}
	if err := f.ReadAt(make([]byte, 1), -1); err == nil {
		t.Error("negative offset accepted")
	}
}

func TestTruncateFreesAndReuses(t *testing.T) {
	for _, mk := range []func(*testing.T) *FS{byteFS, sectorFS} {
		fs := mk(t)
		f, _ := fs.Create("f")
		if err := f.Append(make([]byte, 500_000)); err != nil {
			t.Fatal(err)
		}
		if err := f.Truncate(); err != nil {
			t.Fatal(err)
		}
		if f.Size() != 0 {
			t.Fatalf("size after truncate = %d", f.Size())
		}
		if err := f.Append([]byte("fresh")); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 5)
		if err := f.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if string(got) != "fresh" {
			t.Fatalf("after truncate+append: %q", got)
		}
	}
}

func TestExtentDoublingGrowth(t *testing.T) {
	fs := byteFS(t)
	f, _ := fs.Create("f")
	// Grow past several extent doublings (MinExtent is 8 KiB).
	if err := f.Append(make([]byte, 200_000)); err != nil {
		t.Fatal(err)
	}
	ino := &fs.inodes[f.idx]
	if len(ino.extents) < 3 {
		t.Fatalf("expected several extents, got %d", len(ino.extents))
	}
	for i := 1; i < len(ino.extents); i++ {
		if ino.extents[i].size < ino.extents[i-1].size {
			t.Fatalf("extent %d smaller than predecessor", i)
		}
	}
}

func TestIndirectExtents(t *testing.T) {
	dev := pmem.MustOpen(pmem.Config{Capacity: 64 << 20})
	// Tiny extents force the file beyond DirectExtents quickly.
	fs, err := Format(dev, Profile{Name: "t", Granularity: 1, MinExtent: 4096, MaxExtent: 4096})
	if err != nil {
		t.Fatal(err)
	}
	f, _ := fs.Create("big")
	payload := make([]byte, 4096)
	for i := 0; i < DirectExtents+10; i++ {
		for j := range payload {
			payload[j] = byte(i)
		}
		if err := f.Append(payload); err != nil {
			t.Fatalf("append extent %d: %v", i, err)
		}
	}
	if got := len(fs.inodes[f.idx].extents); got <= DirectExtents {
		t.Fatalf("file has %d extents, expected indirect spill", got)
	}
	// Read back across the direct/indirect boundary.
	buf := make([]byte, 4096)
	for _, i := range []int{0, DirectExtents - 1, DirectExtents, DirectExtents + 9} {
		if err := f.ReadAt(buf, int64(i)*4096); err != nil {
			t.Fatalf("read extent %d: %v", i, err)
		}
		if buf[0] != byte(i) || buf[4095] != byte(i) {
			t.Fatalf("extent %d content corrupt", i)
		}
	}
}

func TestInodeExhaustion(t *testing.T) {
	fs := byteFS(t)
	for i := 0; i < NInodes; i++ {
		if _, err := fs.Create(string(rune('a'+i%26)) + string(rune('0'+i/26%10)) + string(rune('0'+i/260))); err != nil {
			t.Fatalf("create #%d: %v", i, err)
		}
	}
	if _, err := fs.Create("onemore"); err == nil {
		t.Error("created more files than inodes")
	}
}

func TestSectorGranularityCharging(t *testing.T) {
	fs := sectorFS(t)
	dev := fs.dev
	f, _ := fs.Create("f")
	dev.ResetStats()
	// A one-byte append must cost a whole 512-byte sector write (8 lines).
	if err := f.Append([]byte{1}); err != nil {
		t.Fatal(err)
	}
	if w := dev.Stats().Writes; w < 8 {
		t.Errorf("1-byte sector append wrote %d lines, want ≥ 8 (whole sector)", w)
	}
	dev.ResetStats()
	// A one-byte read costs a whole sector read.
	if err := f.ReadAt(make([]byte, 1), 0); err != nil {
		t.Fatal(err)
	}
	if r := dev.Stats().Reads; r < 8 {
		t.Errorf("1-byte sector read cost %d lines, want ≥ 8", r)
	}
}

func TestByteGranularityCharging(t *testing.T) {
	fs := byteFS(t)
	dev := fs.dev
	f, _ := fs.Create("f")
	dev.ResetStats()
	if err := f.Append([]byte{1}); err != nil {
		t.Fatal(err)
	}
	// Byte-addressable: 1 data line + 1 inode size line.
	if w := dev.Stats().Writes; w > 3 {
		t.Errorf("1-byte pmfs append wrote %d lines, want ≤ 3", w)
	}
}

func TestCallOverheadCharged(t *testing.T) {
	dev := pmem.MustOpen(pmem.Config{Capacity: 32 << 20})
	fs, err := Format(dev, Profile{Name: "t", Granularity: 1, CallOverhead: 100 * time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	f, _ := fs.Create("f")
	base := dev.Stats().SoftTime
	if err := f.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := f.ReadAt(make([]byte, 1), 0); err != nil {
		t.Fatal(err)
	}
	if got := dev.Stats().SoftTime - base; got != 200*time.Nanosecond {
		t.Errorf("software time for two calls = %v, want 200ns", got)
	}
}

// Property: arbitrary append sequences round-trip on both granularities.
func TestQuickFSRoundTrip(t *testing.T) {
	f := func(seed int64, sector bool) bool {
		var fs *FS
		dev := pmem.MustOpen(pmem.Config{Capacity: 16 << 20})
		prof := Profile{Name: "q", Granularity: 1}
		if sector {
			prof = Profile{Name: "q", Granularity: 512, InodeWriteWhole: true}
		}
		fs, err := Format(dev, prof)
		if err != nil {
			return false
		}
		file, err := fs.Create("f")
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		var want []byte
		for i := 0; i < 20; i++ {
			chunk := make([]byte, rng.Intn(3000)+1)
			rng.Read(chunk)
			want = append(want, chunk...)
			if err := file.Append(chunk); err != nil {
				return false
			}
		}
		got := make([]byte, len(want))
		if err := file.ReadAt(got, 0); err != nil {
			return false
		}
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
