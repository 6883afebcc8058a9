package cost

import (
	"math"

	"wlpm/internal/algo"
)

// Profile is an estimated I/O profile in buffer units: what an optimizer
// predicts an algorithm will read and write. Pricing it with the medium's
// latencies (and the engine's per-line CPU constant) yields the response
// estimate that Fig. 12 rank-correlates against measurements.
//
// The paper's printed cost expressions (Eqs. 1–11) are kept verbatim
// elsewhere in this package for the knob solvers; the profiles here model
// the *shipped implementations* — e.g. segment sort streams its selection
// segment into the final merge instead of materializing a long run, and
// all sorts materialize their output — so that the optimizer predicts the
// engine it actually drives.
type Profile struct {
	Reads  float64 // buffer reads
	Writes float64 // buffer writes

	// SerialReads and SerialWrites are the portions of Reads/Writes
	// charged by phases whose execution order is the output order (HybS's
	// fill pass, SegS's streaming final merge, HJ/LaJ's fused
	// build-offload scans…) or that run one at a time (a sort's extra
	// merge passes), and therefore do not fan out to workers. The
	// remainder — partition scans, run formation, table builds, probes
	// and the splitter-partitioned final merge — overlaps
	// across P workers, which is exactly how the engine's device overlap
	// clock credits it. Zero means fully parallelizable.
	SerialReads  float64
	SerialWrites float64
}

// PriceP converts the profile to a response estimate given per-buffer
// read and write costs (in any consistent unit, e.g. nanoseconds
// including the engine's CPU share) under par-way intra-operator
// parallelism: the serial portions cost full price, the parallelizable
// remainder overlaps par ways. par ≤ 1 is the serial estimate.
func (p Profile) PriceP(read, write, par float64) float64 {
	if par < 1 {
		par = 1
	}
	sr, sw := p.SerialReads, p.SerialWrites
	if sr > p.Reads {
		sr = p.Reads
	}
	if sw > p.Writes {
		sw = p.Writes
	}
	return sr*read + sw*write + (p.Reads-sr)*read/par + (p.Writes-sw)*write/par
}

// Emit says what a stage really does with the result its algorithm
// materializes, when that is not what the algorithm's profile assumes:
// the engine's left‖right join rows instead of the paper's
// single-record results, the |groups| records a sort with a combine
// emits (sorts.SortFolding), the width and selectivity of an emit-side
// chain. Every
// profile constructor is a method of it (em.ExMS(t, m); the paper's own
// ExMS profile is Emit{}.ExMS(t, m)) that re-sizes or serializes its own
// output term inside the profile, before PriceP scales it — instead of a caller
// correcting a price after the fact. It is plain data and Profile stays
// four words: the planner prices a hundred candidates per stage pricing
// and thousands of pricings per allocation, all through direct calls on
// register-sized values. The zero value emits as profiled.
type Emit struct {
	// Out > 0 is the size of the output term in buffers.
	Out float64
	// Serial: the consumer must see one ordered stream (a sink) rather
	// than a collection that can be range-appended, so whatever part of
	// the output fanned out costs full price, and so do the reads that
	// fed it — every sort's parallel emission is a final merge that
	// re-reads exactly as many run buffers as it writes.
	Serial bool
	// Handed: the output is the consuming stage's to price — the paper's
	// process-to-append (§3.1). The stage appends its result to the
	// consumer's intake as it emits (sorts.Intake; the consumer is
	// priced by FedExMS), or, where the consumer found storing cheaper,
	// to a temp the consumer charges itself for. Either way the profile
	// carries no output term, and Out is ignored.
	Handed bool
	// Folded > 0 is a folding intake's run-formation output in buffers
	// (sorts.NewIntake with a combine): what is left of the t input
	// buffers once records of equal key resident in memory have been
	// combined. ExMS and FedExMS charge it, not t, for the run writes,
	// their re-read and any extra merge passes. 0 = unfolded.
	Folded float64
	// Source > 0 is what one scan of a join's build input reads where it
	// lies, in buffers, when that differs from t, the size of the build
	// records the join holds, partitions and writes: a projection over a
	// base table is a view that reads every base record whole. Each join
	// profile charges it for every scan of its left input (NLJ's one,
	// LaJ's lazy passes, SegJ's re-scans) and t for what it wrote of it.
	// It covers width only. 0 = t.
	Source float64
	// Limit > 0 is what the stage's reader takes of its sorted output,
	// in buffers: an order-by under a limit (exec's stage bound). Only
	// SelS reads it — a selection pass emits in output order, so it
	// stops once Limit buffers are out; every other sort writes its
	// whole input. 0 = all.
	Limit float64
}

// rescan is the extra read of scans scans of a join's left input where
// it lies (Source) over the t buffers its profile charged for them.
func (em Emit) rescan(scans, t float64) float64 {
	if em.Source <= 0 {
		return 0
	}
	return scans * (em.Source - t)
}

// runs is the run-formation output for t input buffers: t, or what a
// folding intake leaves of it.
func (em Emit) runs(t float64) float64 {
	if em.Folded > 0 {
		return em.Folded
	}
	return t
}

// emitting applies em to a profile whose output term is out buffers of
// Writes, serial of them already counted in SerialWrites. A re-sized
// term keeps its serial share; a handed one is dropped.
func (p Profile) emitting(em Emit, out, serial float64) Profile {
	if out <= 0 {
		return p
	}
	if em.Serial {
		p.SerialReads += out - serial
		p.SerialWrites += out - serial
		serial = out
	}
	if em.Handed {
		p.Writes -= out
		p.SerialWrites -= serial
		return p
	}
	if em.Out > 0 {
		p.Writes += em.Out - out
		p.SerialWrites += (em.Out - out) * serial / out
	}
	return p
}

// extraMergePasses is the number of merge passes beyond the final one for
// the given run count and fan-in: sorts.mergeRuns' loop, which merges
// groups of fanIn runs until at most fanIn are left.
func extraMergePasses(runs, fanIn float64) float64 {
	if math.IsInf(runs, 0) { // no memory: nothing to count passes of
		return 0
	}
	p := 0.0
	for r := math.Ceil(runs); r > fanIn; r = math.Ceil(r / fanIn) {
		p++
	}
	return p
}

// mergeFanIn is the kernels' merge fan-in at m buffers of memory: one
// buffer per open run, one for the output and one per streaming source
// beside the runs (sorts.mergeRuns), never below two runs.
func mergeFanIn(m, streams float64) float64 {
	return math.Max(2, m-1-streams)
}

// ExMS: replacement-selection run formation (read input, write
// runs), merge passes, materialized output. Run formation (in chunks) and
// the splitter-partitioned final merge fan out to workers; the extra
// merge passes merge their groups one at a time (sorts.mergePass), so
// they are serial.
// The output term is what em says is emitted.
func (em Emit) ExMS(t, m float64) Profile {
	if t <= 0 {
		return Profile{}
	}
	r := em.runs(t)
	e := extraMergePasses(r/(2*m), mergeFanIn(m, 0))
	p := Profile{
		Reads:        t + r + e*r, // input scan + run re-read (+ extra passes)
		Writes:       r + e*r + t, // runs (+ extra passes) + output
		SerialReads:  e * r,
		SerialWrites: e * r,
	}.emitting(em, t, 0)
	if em.Serial {
		p.SerialReads -= t - r // the serial final merge re-reads the runs, folded or not
	}
	return p
}

// FedExMS is ExMS over an input that the stage producing it appends to
// the sort's intake (sorts.Intake) instead of storing it: there is no
// input scan, and the rest is ExMS's, emitting as em describes — but
// serial at any P. Run formation takes one ordered stream, the merge
// passes merge one group at a time, and the final merge is the intake's
// stream, one serial pull (Intake.Stream), so every read and write of
// the profile is serial. When the run-formation output fits the m
// buffers of memory, the intake never evicts: no run is written or
// re-read, and the heap drains into the output as one ordered stream, so
// the profile is the output alone.
func (em Emit) FedExMS(t, m float64) Profile {
	if t <= 0 {
		return Profile{}
	}
	p := em.ExMS(t, m)
	if r := em.runs(t); r <= m {
		p = Profile{Writes: p.Writes - r}
	} else {
		p.Reads -= t
	}
	p.SerialReads, p.SerialWrites = p.Reads, p.Writes
	return p
}

// SelS: multi-pass selection sort straight into the output. Each
// pass's emission order is the output order — fully serial. Under a
// Limit it writes only the min(t, Limit) buffers its reader takes, in
// ⌈min(t, Limit)/m⌉ passes over the whole input.
// The output term is what em says is emitted.
func (em Emit) SelS(t, m float64) Profile {
	if t <= 0 {
		return Profile{}
	}
	out := t
	if em.Limit > 0 && em.Limit < t {
		out = em.Limit
	}
	passes := math.Ceil(out / m)
	return Profile{
		Reads: passes * t, Writes: out,
		SerialReads: passes * t, SerialWrites: out,
	}.emitting(em, out, out)
}

// SegS: fraction x through run formation, the rest streamed into
// the final merge by repeated selection passes over the suffix segment.
// The output term is what em says is emitted.
func (em Emit) SegS(x, t, m float64) Profile {
	if t <= 0 {
		return Profile{}
	}
	seg := (1 - x) * t
	passes := 0.0
	if seg > 0 {
		passes = math.Ceil(seg / m)
	}
	streams := 0.0 // the selection segment merges beside the runs
	if seg > 0 {
		streams = 1
	}
	e := extraMergePasses(x*t/(2*m), mergeFanIn(m, streams))
	p := Profile{
		Reads:        x*t + x*t + e*x*t + passes*seg, // segment A scan + run re-read + selection passes
		Writes:       x*t + e*x*t + t,                // runs + output
		SerialReads:  e * x * t,                      // the extra merge passes, as ExMS's
		SerialWrites: e * x * t,
	}
	// The selection segment streams into the final merge, keeping that
	// whole pass — the run re-read, the selection passes and the output —
	// serial at every P; only run formation fans out. At x = 1 there is
	// no segment and the final merge parallelizes like ExMS's.
	outSerial := 0.0
	if seg > 0 {
		p.SerialReads += x*t + passes*seg
		p.SerialWrites += t
		outSerial = t
	}
	return p.emitting(em, t, outSerial)
}

// HybS: a selection region of x·m buffers feeds the output
// directly; everything else passes through replacement selection with
// (1−x)·m memory.
// The output term is what em says is emitted.
func (em Emit) HybS(x, t, m float64) Profile {
	if t <= 0 {
		return Profile{}
	}
	direct := x * m
	if direct > t {
		direct = t
	}
	rest := t - direct
	rr := (1 - x) * m
	if rr < 1 {
		rr = 1
	}
	e := extraMergePasses(rest/(2*rr), mergeFanIn(m, 0))
	return Profile{
		Reads:  t + rest + e*rest,
		Writes: rest + e*rest + t,
		// The fill pass is order-dependent (the selection region tracks
		// the global minima seen so far): the input scan, the run spills
		// and the direct Rs output stay serial, and so do the extra merge
		// passes (ExMS's). The splitter-partitioned final merge over the
		// runs fans out.
		SerialReads:  t + e*rest,
		SerialWrites: rest + direct + e*rest,
	}.emitting(em, t, direct)
}

// LaS: lazy sort's dynamic behaviour in expectation — selection
// scans of the shrinking input, with the remainder materialized every
// n-th iteration (Eq. 5). Unlike the other sort profiles the estimate
// depends on λ, because the materialization points do.
// The output term is what em says is emitted.
func (em Emit) LaS(t, m, lambda float64) Profile {
	if t <= 0 || m <= 0 {
		return Profile{}
	}
	var p Profile
	remaining := t
	for remaining > 0 {
		n := float64(LazySortMaterializeIteration(remaining, m, lambda))
		emitted := n * m
		if emitted > remaining {
			emitted = remaining
		}
		p.Reads += n * remaining // n selection passes over the current input
		p.Writes += emitted      // output buffers written once each
		remaining -= emitted
		if remaining > 0 {
			p.Writes += remaining // materialize the intermediate input Ti
			p.Reads += remaining  // and re-read it next round
		}
	}
	// Selection passes emit in output order and the materialization is
	// fused with them — fully serial, like SelS.
	p.SerialReads, p.SerialWrites = p.Reads, p.Writes
	return p.emitting(em, t, t)
}

// joinOutput is the materialized result size in buffers: the paper's
// evaluation writes one input-sized record per match, and the benchmark
// produces |V| matches.
func joinOutput(v float64) float64 { return v }

// GJ: partition both inputs, read the partitions back, write the
// output. Partitioning, builds and probes all fan out — nothing serial.
// The output term is what em says is emitted.
func (em Emit) GJ(t, v float64) Profile {
	return Profile{
		Reads:  2*(t+v) + em.rescan(1, t),
		Writes: (t + v) + joinOutput(v),
	}.emitting(em, joinOutput(v), 0)
}

// HashPartitions is k = ⌈f·t/m⌉, at least 1 (f = algo.HashTableExpansion):
// the fewest partitions of a t-buffer build side whose hash tables fit in
// m buffers — the partition count of HJ, LaJ and SegJ and the block count
// of NLJ.
func HashPartitions(t, m float64) float64 {
	return math.Max(1, math.Ceil(algo.HashTableExpansion*t/m))
}

// HJ: Table 1's standard hash join — iteration i re-reads the
// surviving (k−i+1)/k of both inputs and rewrites (k−i)/k of them.
// The output term is what em says is emitted.
func (em Emit) HJ(t, v, m float64) Profile {
	k := HashPartitions(t, m)
	per := (t + v) / k
	reads, writes := 0.0, 0.0
	for i := 1.0; i <= k; i++ {
		reads += (k - i + 1) * per
		writes += (k - i) * per
	}
	// HJ's builds are fused with the survivor-offload scans (scan order is
	// survivor order), so the whole algorithm stays serial. Only the first
	// iteration scans the left input where it lies.
	p := Profile{Reads: reads + em.rescan(1, t), Writes: writes + joinOutput(v)}
	p.SerialReads, p.SerialWrites = p.Reads, p.Writes
	return p.emitting(em, joinOutput(v), joinOutput(v))
}

// NLJ: block nested loops with in-memory tables of m/f buffers.
// Block builds and probe scans fan out — nothing serial.
// The output term is what em says is emitted.
func (em Emit) NLJ(t, v, m float64) Profile {
	blocks := HashPartitions(t, m)
	return Profile{Reads: t + blocks*v + em.rescan(1, t), Writes: joinOutput(v)}.emitting(em, joinOutput(v), 0)
}

// HybJ: Grace over (x·t, y·v) with the right suffix piggybacked
// per partition and nested loops for the left suffix. With no left
// prefix the engine partitions nothing and piggybacks nothing — it runs
// NLJ's exact I/O — so the profile is NLJ's.
// The output term is what em says is emitted.
func (em Emit) HybJ(x, y, t, v, m float64) Profile {
	if x*t <= 0 {
		return em.NLJ(t, v, m)
	}
	k := math.Ceil(algo.HashTableExpansion * x * t / m)
	if k < 1 {
		k = 1
	}
	nlBlocks := math.Ceil(algo.HashTableExpansion * (1 - x) * t / m)
	if (1-x)*t <= 0 {
		nlBlocks = 0
	}
	return Profile{
		// The prefix's partition scan and the suffix's nested loops read
		// the left input where it lies once between them.
		Reads:  x*t + y*v + x*t + y*v + k*(1-y)*v + (1-x)*t + nlBlocks*v + em.rescan(1, t),
		Writes: x*t + y*v + joinOutput(v),
	}.emitting(em, joinOutput(v), 0)
}

// LaJ: lazy hash join — Table 1's right half up to the
// materialization iteration n (every pass re-reads the original inputs,
// writes nothing), then the surviving fraction is materialized and the
// remaining iterations proceed like standard hash join. λ places n.
// The output term is what em says is emitted.
func (em Emit) LaJ(t, v, m, lambda float64) Profile {
	if t <= 0 || m <= 0 {
		return Profile{}
	}
	k := HashPartitions(t, m)
	per := (t + v) / k
	n := float64(LazyHashJoinMaterializeIteration(int(k), lambda))
	if n > k {
		n = k
	}
	var p Profile
	p.Reads = n * (t + v)         // lazy passes re-scan the full inputs
	p.Writes = (k - n) * per      // materialize the survivors at iteration n
	for i := n + 1; i <= k; i++ { // standard iterations over the remainder
		p.Reads += (k - i + 1) * per
		p.Writes += (k - i) * per
	}
	p.Writes += joinOutput(v)
	p.Reads += em.rescan(math.Max(n, 1), t) // the lazy passes, or the first iteration, read the left input where it lies
	// Like HJ, every scan either probes or routes survivors in scan
	// order — fully serial.
	p.SerialReads, p.SerialWrites = p.Reads, p.Writes
	return p.emitting(em, joinOutput(v), joinOutput(v))
}

// SegJ: initial scan offloading x of the k partitions, their
// re-read, and one filtered re-scan of both inputs per remaining
// partition.
// The output term is what em says is emitted.
func (em Emit) SegJ(intensity, t, v, m float64) Profile {
	k := HashPartitions(t, m)
	xp := math.Floor(intensity * k)
	return Profile{
		// The initial scan and every re-scan read the inputs where they
		// lie; the offloaded partitions are re-read as written.
		Reads:  (t + v) + xp*(t+v)/k + (k-xp)*(t+v) + em.rescan(1+k-xp, t),
		Writes: xp*(t+v)/k + joinOutput(v),
	}.emitting(em, joinOutput(v), 0)
}
