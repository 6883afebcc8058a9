// Package pmem simulates a byte-addressable persistent-memory device with
// asymmetric read/write costs.
//
// The device is the substrate for every experiment in this repository. It
// mirrors the methodology of Viglas (VLDB 2014), §4: persistent memory is
// modelled by charging a fixed latency per cacheline read (default 10 ns)
// and per cacheline write (default 150 ns). All I/O is counted at cacheline
// granularity regardless of the caller's access size, so a 512-byte sector
// write costs eight cacheline writes while an 8-byte inode update costs one.
//
// The memory is read by load, as the paper's premise has it: View charges
// a read and hands out the device bytes themselves, and ReadAt is View
// plus a copy. A view is read-only by contract — its capacity is its
// length, so an append cannot reach past it, but nothing else stops a
// write through it, and no write through one is ever counted.
//
// By default latencies are only *accounted*: the simulated clock
// (Stats.SimIOTime) is derived from the cacheline counts and the two
// latencies fixed at Open, so a charge costs the host only the counter
// updates that Stats reports. Setting Config.Spin injects real busy-wait
// delays, reproducing the paper's idle-loop instrumentation.
package pmem

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"
)

// Default device parameters. Latencies follow the paper's main
// configuration (10 ns reads, 150 ns writes, λ = 15); the cacheline size is
// the "buffer" unit of the paper's algorithmic framework.
const (
	DefaultCachelineSize = 64
	DefaultReadLatency   = 10 * time.Nanosecond
	DefaultWriteLatency  = 150 * time.Nanosecond
)

// Config parametrizes a simulated device.
type Config struct {
	// Capacity is the device size in bytes. Required. Open allocates and
	// zeroes all of it up front, so host time and memory grow with the
	// capacity, not with what is stored: size it to the data.
	Capacity int64
	// CachelineSize is the accounting granularity in bytes.
	// Defaults to DefaultCachelineSize. Must be a power of two.
	CachelineSize int
	// ReadLatency is charged per cacheline read. Defaults to DefaultReadLatency.
	ReadLatency time.Duration
	// WriteLatency is charged per cacheline written. Defaults to DefaultWriteLatency.
	WriteLatency time.Duration
	// Spin makes every access busy-wait for its charged latency, like the
	// idle loops of the paper's instrumentation. When false (the default)
	// latencies accumulate only in the simulated clock.
	Spin bool
	// TrackWear maintains a per-cacheline write counter (endurance model).
	TrackWear bool
}

func (c *Config) setDefaults() error {
	if c.Capacity <= 0 {
		return fmt.Errorf("pmem: capacity must be positive, got %d", c.Capacity)
	}
	if c.CachelineSize == 0 {
		c.CachelineSize = DefaultCachelineSize
	}
	if c.CachelineSize < 8 || c.CachelineSize&(c.CachelineSize-1) != 0 {
		return fmt.Errorf("pmem: cacheline size must be a power of two ≥ 8, got %d", c.CachelineSize)
	}
	if c.ReadLatency == 0 {
		c.ReadLatency = DefaultReadLatency
	}
	if c.WriteLatency == 0 {
		c.WriteLatency = DefaultWriteLatency
	}
	if c.ReadLatency < 0 || c.WriteLatency < 0 {
		return fmt.Errorf("pmem: latencies must be non-negative")
	}
	return nil
}

// Device is a simulated persistent-memory device.
//
// Counters are safe for concurrent use; the backing memory itself is not
// synchronized — callers that share address ranges across goroutines must
// coordinate, exactly as with real memory.
type Device struct {
	cfg       Config
	lineShift uint // log2(cfg.CachelineSize)
	mem       []byte
	wear      []uint32

	reads       atomic.Uint64 // cachelines read
	writes      atomic.Uint64 // cachelines written
	readOps     atomic.Uint64
	writeOps    atomic.Uint64
	bytesRead   atomic.Uint64
	bytesWrite  atomic.Uint64
	ovlDiscount atomic.Int64 // overlap discount: Σ latency·(1 − 1/k) over charges made by k > 1 workers
	softNanos   atomic.Int64
	spinDebt    atomic.Int64 // spin mode: sub-quantum delay owed but not yet slept

	// active is read by every charge and written only at worker
	// brackets: its own cacheline keeps the counters' writes from
	// invalidating it.
	_      [64]byte
	active atomic.Int64 // workers inside an EnterWorker/LeaveWorker bracket
	_      [56]byte
}

// Open creates a device of cfg.Capacity bytes, all of them allocated and
// zeroed before it returns (and a wear counter per cacheline with
// TrackWear): opening a 256 MiB device costs the host 256 MiB and its
// zeroing however little is written to it.
func Open(cfg Config) (*Device, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	d := &Device{
		cfg:       cfg,
		lineShift: uint(bits.TrailingZeros(uint(cfg.CachelineSize))),
		mem:       make([]byte, cfg.Capacity),
	}
	if cfg.TrackWear {
		d.wear = make([]uint32, (cfg.Capacity+int64(cfg.CachelineSize)-1)/int64(cfg.CachelineSize))
	}
	return d, nil
}

// MustOpen is Open for tests and examples where the config is known good.
func MustOpen(cfg Config) *Device {
	d, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// Capacity reports the device size in bytes.
func (d *Device) Capacity() int64 { return d.cfg.Capacity }

// CachelineSize reports the accounting granularity in bytes.
func (d *Device) CachelineSize() int { return d.cfg.CachelineSize }

// ReadLatency reports the charged per-cacheline read latency, fixed at
// Open.
func (d *Device) ReadLatency() time.Duration { return d.cfg.ReadLatency }

// WriteLatency reports the charged per-cacheline write latency, fixed at
// Open.
func (d *Device) WriteLatency() time.Duration { return d.cfg.WriteLatency }

// Lambda reports the write/read cost ratio λ = w/r of the latencies.
func (d *Device) Lambda() float64 {
	if d.cfg.ReadLatency == 0 {
		return 1
	}
	return float64(d.cfg.WriteLatency) / float64(d.cfg.ReadLatency)
}

func (d *Device) checkRange(op string, off int64, n int) error {
	if off < 0 || n < 0 || off+int64(n) > d.cfg.Capacity {
		return fmt.Errorf("pmem: %s [%d, %d) out of range [0, %d)", op, off, off+int64(n), d.cfg.Capacity)
	}
	return nil
}

// lines reports how many cachelines the byte range [off, off+n) touches.
func (d *Device) lines(off int64, n int) uint64 {
	if n == 0 {
		return 0
	}
	first := off >> d.lineShift
	last := (off + int64(n) - 1) >> d.lineShift
	return uint64(last - first + 1)
}

// View returns the n device bytes at offset off in place, charging one
// read per touched cacheline — exactly what ReadAt charges for the same
// range. The slice's capacity is its length. It must not be written
// through: no write through it would be counted. Its bytes change only
// when the range is written again.
func (d *Device) View(off int64, n int) ([]byte, error) {
	if err := d.checkRange("read", off, n); err != nil {
		return nil, err
	}
	lines := d.lines(off, n)
	d.reads.Add(lines)
	d.readOps.Add(1)
	d.bytesRead.Add(uint64(n))
	d.charge(lines, d.cfg.ReadLatency)
	end := off + int64(n)
	return d.mem[off:end:end], nil
}

// ReadAt copies len(p) bytes at offset off into p, charging one read per
// touched cacheline.
func (d *Device) ReadAt(p []byte, off int64) error {
	v, err := d.View(off, len(p))
	if err != nil {
		return err
	}
	copy(p, v)
	return nil
}

// WriteAt copies p to offset off, charging one write per touched cacheline
// and bumping the wear counters when enabled.
func (d *Device) WriteAt(p []byte, off int64) error {
	if err := d.checkRange("write", off, len(p)); err != nil {
		return err
	}
	copy(d.mem[off:off+int64(len(p))], p)
	n := d.lines(off, len(p))
	d.writes.Add(n)
	d.writeOps.Add(1)
	d.bytesWrite.Add(uint64(len(p)))
	d.charge(n, d.cfg.WriteLatency)
	if d.wear != nil && len(p) > 0 {
		cls := int64(d.cfg.CachelineSize)
		for line := off / cls; line <= (off+int64(len(p))-1)/cls; line++ {
			atomic.AddUint32(&d.wear[line], 1)
		}
	}
	return nil
}

// spinSleepThreshold is the spin-mode delay quantum: delays at or above
// it are served by one sleep, and shorter charges accrue into a shared
// debt that is slept off one quantum at a time. Serving delays through
// the scheduler instead of busy-waiting is what lets modelled device
// latency overlap with other workers' real CPU work — including on
// single-core hosts, where a busy-wait would hold the only core and
// serialize the very overlap spin mode exists to demonstrate.
const spinSleepThreshold = 100 * time.Microsecond

// charge accounts n accesses of latency lat, whose lines the caller has
// already counted (the simulated clock is derived from the counts), and
// optionally delays for the same duration. Only a charge made while
// k > 1 workers are active touches the overlap clock: it discounts the
// (k−1)/k of the latency that overlaps the other workers' accesses.
// Long delays sleep directly; short ones add to the device's delay
// debt, and the charge that tips the debt over a quantum sleeps it off
// on behalf of everyone. Batching the sleeps keeps per-charge overhead
// near zero while the total slept time still equals the total charged
// latency.
func (d *Device) charge(n uint64, lat time.Duration) {
	w := d.active.Load()
	if w <= 1 && !d.cfg.Spin {
		return
	}
	total := time.Duration(n) * lat
	if w > 1 {
		d.ovlDiscount.Add(int64(total) - int64(total)/w)
	}
	if !d.cfg.Spin || total <= 0 {
		return
	}
	if total >= spinSleepThreshold {
		d.sleepOff(total)
		return
	}
	debt := d.spinDebt.Add(int64(total))
	if debt < int64(spinSleepThreshold) {
		return
	}
	// Claim one quantum of the shared debt; losing the race just means
	// another charge is already sleeping it off.
	if d.spinDebt.CompareAndSwap(debt, debt-int64(spinSleepThreshold)) {
		d.sleepOff(spinSleepThreshold)
	}
}

// sleepOff sleeps for want and credits any overshoot back against the
// delay debt. Sleep granularity is host-dependent (often ~1 ms), so
// without the credit every quantum would oversleep by up to a timer
// tick and spin-mode wall time would be dominated by the host's timer
// resolution instead of the charged latencies; with it, the total slept
// time converges to the total charged latency.
func (d *Device) sleepOff(want time.Duration) {
	start := time.Now()
	time.Sleep(want)
	if over := time.Since(start) - want; over > 0 {
		d.spinDebt.Add(-int64(over))
	}
}

// EnterWorker registers the calling goroutine as one worker of a
// parallel phase: while k workers are inside an Enter/Leave bracket,
// every charged latency advances the overlap clock (Stats.SimIOOverlap)
// by 1/k of its nominal cost, modelling k device accesses in flight at
// once. Serial execution (no bracket, or a single worker) leaves the
// overlap clock equal to SimIOTime. Pair every EnterWorker with a
// LeaveWorker (defer is fine).
func (d *Device) EnterWorker() { d.active.Add(1) }

// LeaveWorker undoes one EnterWorker.
func (d *Device) LeaveWorker() { d.active.Add(-1) }

// ChargeSoftware adds software-path overhead (filesystem call costs,
// copies) to the simulated clock. The persistence-layer backends use this
// to model the per-call overheads the paper attributes to each
// implementation alternative (§3.2); the raw blocked-memory backend charges
// nothing.
func (d *Device) ChargeSoftware(dur time.Duration) {
	if dur > 0 {
		d.softNanos.Add(int64(dur))
	}
}

// Stats is a snapshot of the device counters.
type Stats struct {
	Reads        uint64 // cachelines read
	Writes       uint64 // cachelines written
	ReadOps      uint64 // ReadAt calls
	WriteOps     uint64 // WriteAt calls
	BytesRead    uint64
	BytesWritten uint64
	SimIOTime    time.Duration // Σ accesses × latency
	SimIOOverlap time.Duration // Σ accesses × latency ÷ active workers (≤ SimIOTime)
	SoftTime     time.Duration // accumulated software-path overhead
}

// Sub returns s − o, the activity between two snapshots.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Reads:        s.Reads - o.Reads,
		Writes:       s.Writes - o.Writes,
		ReadOps:      s.ReadOps - o.ReadOps,
		WriteOps:     s.WriteOps - o.WriteOps,
		BytesRead:    s.BytesRead - o.BytesRead,
		BytesWritten: s.BytesWritten - o.BytesWritten,
		SimIOTime:    s.SimIOTime - o.SimIOTime,
		SimIOOverlap: s.SimIOOverlap - o.SimIOOverlap,
		SoftTime:     s.SoftTime - o.SoftTime,
	}
}

// Add returns s + o.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Reads:        s.Reads + o.Reads,
		Writes:       s.Writes + o.Writes,
		ReadOps:      s.ReadOps + o.ReadOps,
		WriteOps:     s.WriteOps + o.WriteOps,
		BytesRead:    s.BytesRead + o.BytesRead,
		BytesWritten: s.BytesWritten + o.BytesWritten,
		SimIOTime:    s.SimIOTime + o.SimIOTime,
		SimIOOverlap: s.SimIOOverlap + o.SimIOOverlap,
		SoftTime:     s.SoftTime + o.SoftTime,
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("reads=%d writes=%d simIO=%v", s.Reads, s.Writes, s.SimIOTime)
}

// Stats returns a snapshot of the counters. The simulated clock is
// derived from the cacheline counts; the overlap discount is loaded
// first, so every charge it covers is counted in them.
func (d *Device) Stats() Stats {
	discount := time.Duration(d.ovlDiscount.Load())
	reads, writes := d.reads.Load(), d.writes.Load()
	io := time.Duration(reads)*d.cfg.ReadLatency + time.Duration(writes)*d.cfg.WriteLatency
	return Stats{
		Reads:        reads,
		Writes:       writes,
		ReadOps:      d.readOps.Load(),
		WriteOps:     d.writeOps.Load(),
		BytesRead:    d.bytesRead.Load(),
		BytesWritten: d.bytesWrite.Load(),
		SimIOTime:    io,
		SimIOOverlap: io - discount,
		SoftTime:     time.Duration(d.softNanos.Load()),
	}
}

// SimTime is the total simulated time: device I/O plus software overhead.
func (s Stats) SimTime() time.Duration { return s.SimIOTime + s.SoftTime }

// Phase-change-memory access energies per cacheline, derived from the
// ~2 pJ/bit read and ~16 pJ/bit write figures of the PCM literature the
// paper builds on (Qureshi et al. 2012): asymmetry manifests in power as
// well as latency (§4.3), and more sharply — λ_energy = 8 here versus
// whatever the latency ratio is.
const (
	DefaultReadEnergyPJ  = 2 * 64 * 8  // pJ per line read
	DefaultWriteEnergyPJ = 16 * 64 * 8 // pJ per line written
)

// EnergyPJ estimates the device energy of the recorded accesses in
// picojoules, given per-line access energies (zero values select the PCM
// defaults). The paper notes the algorithms' relative gains grow under
// energy metrics because the write/read asymmetry is more pronounced.
func (s Stats) EnergyPJ(readPJ, writePJ float64) float64 {
	if readPJ <= 0 {
		readPJ = DefaultReadEnergyPJ
	}
	if writePJ <= 0 {
		writePJ = DefaultWriteEnergyPJ
	}
	return float64(s.Reads)*readPJ + float64(s.Writes)*writePJ
}

// ResetStats zeroes all counters (wear map included).
func (d *Device) ResetStats() {
	d.reads.Store(0)
	d.writes.Store(0)
	d.readOps.Store(0)
	d.writeOps.Store(0)
	d.bytesRead.Store(0)
	d.bytesWrite.Store(0)
	d.ovlDiscount.Store(0)
	d.softNanos.Store(0)
	for i := range d.wear {
		atomic.StoreUint32(&d.wear[i], 0)
	}
}

// WearSummary aggregates the per-cacheline write counters.
type WearSummary struct {
	Tracked   bool
	Lines     int     // cachelines on the device
	Written   int     // lines written at least once
	MaxWrites uint32  // hottest line
	MeanWrite float64 // average over written lines
}

// Wear summarizes device endurance exposure. Zero value when tracking is off.
func (d *Device) Wear() WearSummary {
	if d.wear == nil {
		return WearSummary{}
	}
	s := WearSummary{Tracked: true, Lines: len(d.wear)}
	var sum uint64
	for i := range d.wear {
		w := atomic.LoadUint32(&d.wear[i])
		if w == 0 {
			continue
		}
		s.Written++
		sum += uint64(w)
		if w > s.MaxWrites {
			s.MaxWrites = w
		}
	}
	if s.Written > 0 {
		s.MeanWrite = float64(sum) / float64(s.Written)
	}
	return s
}
