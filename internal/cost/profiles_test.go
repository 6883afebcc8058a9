package cost

import (
	"math"
	"testing"
	"testing/quick"
)

func TestProfilePrice(t *testing.T) {
	p := Profile{Reads: 10, Writes: 2}
	if got := p.PriceP(1, 15, 1); got != 40 {
		t.Errorf("PriceP = %v, want 40", got)
	}
}

func TestSortProfilesStructure(t *testing.T) {
	const tt, m = 100000.0, 5000.0

	exms := Emit{}.ExMS(tt, m)
	// Run formation + output: two full writes; input + run re-read: two
	// full reads (single merge pass at this fan-in).
	if exms.Writes != 2*tt || exms.Reads != 2*tt {
		t.Errorf("ExMS profile %+v, want reads=writes=2|T|", exms)
	}

	sels := Emit{}.SelS(tt, m)
	if sels.Writes != tt {
		t.Errorf("SelS writes %v, want |T| (write-minimal)", sels.Writes)
	}
	if sels.Reads != 20*tt {
		t.Errorf("SelS reads %v, want |T|²/M = 20|T|", sels.Reads)
	}

	// SegS endpoints collapse to the neighbours.
	if got := (Emit{}).SegS(1, tt, m); got != exms {
		t.Errorf("SegS(1) = %+v, want ExMS %+v", got, exms)
	}
	if got := (Emit{}).SegS(0, tt, m); got != sels {
		t.Errorf("SegS(0) = %+v, want SelS %+v", got, sels)
	}

	// Writes grow with intensity; reads shrink.
	lo, hi := Emit{}.SegS(0.2, tt, m), Emit{}.SegS(0.8, tt, m)
	if !(lo.Writes < hi.Writes && lo.Reads > hi.Reads) {
		t.Errorf("SegS intensity trade broken: low %+v high %+v", lo, hi)
	}
}

func TestHybSProfileBounds(t *testing.T) {
	const tt, m = 100000.0, 5000.0
	p := Emit{}.HybS(0.5, tt, m)
	// Never fewer writes than the output, never more than ExMS-like 2|T|
	// (plus merge passes).
	if p.Writes < tt || p.Writes > 2.5*tt {
		t.Errorf("HybS writes %v out of [|T|, 2.5|T|]", p.Writes)
	}
	// Higher intensity diverts more records straight to the output.
	if (Emit{}).HybS(0.9, tt, m).Writes >= (Emit{}).HybS(0.1, tt, m).Writes {
		t.Error("HybS writes not decreasing in intensity")
	}
}

func TestJoinProfilesStructure(t *testing.T) {
	const tt, v, m = 10000.0, 100000.0, 500.0

	gj := Emit{}.GJ(tt, v)
	if gj.Writes != (tt+v)+v || gj.Reads != 2*(tt+v) {
		t.Errorf("GJ profile %+v", gj)
	}

	nlj := Emit{}.NLJ(tt, v, m)
	if nlj.Writes != v {
		t.Errorf("NLJ writes %v, want output only", nlj.Writes)
	}
	if nlj.Reads <= v {
		t.Errorf("NLJ reads %v suspiciously low", nlj.Reads)
	}

	hj := Emit{}.HJ(tt, v, m)
	if hj.Writes <= gj.Writes {
		t.Errorf("HJ writes %v not above GJ %v", hj.Writes, gj.Writes)
	}

	// SegJ at full intensity materializes every partition ≈ Grace.
	segFull := Emit{}.SegJ(1, tt, v, m)
	if segFull.Writes != gj.Writes {
		t.Errorf("SegJ(1) writes %v, want GJ %v", segFull.Writes, gj.Writes)
	}
	// Lower intensity: fewer writes, more reads.
	seg2, seg8 := Emit{}.SegJ(0.2, tt, v, m), Emit{}.SegJ(0.8, tt, v, m)
	if !(seg2.Writes < seg8.Writes && seg2.Reads > seg8.Reads) {
		t.Errorf("SegJ trade broken: %+v vs %+v", seg2, seg8)
	}

	// HybJ at (1,1) degenerates to Grace's write profile.
	hybFull := Emit{}.HybJ(1, 1, tt, v, m)
	if hybFull.Writes != gj.Writes {
		t.Errorf("HybJ(1,1) writes %v, want GJ %v", hybFull.Writes, gj.Writes)
	}
	// HybJ at (0,0) is nested loops.
	hyb0 := Emit{}.HybJ(0, 0, tt, v, m)
	if hyb0.Writes != nlj.Writes {
		t.Errorf("HybJ(0,0) writes %v, want NLJ %v", hyb0.Writes, nlj.Writes)
	}
}

// TestDegenerateProfilesEqual: each baseline's profile is the profile of
// the write-limited algorithm it is the degenerate setting of (§2.1.1,
// §2.2.1, §2.2.2), whatever the stage does with its output — the engine
// runs the same I/O at those points, so the planner must price the same.
func TestDegenerateProfilesEqual(t *testing.T) {
	for _, em := range feedEmits {
		for _, sz := range []struct{ t, v, m float64 }{{10000, 100000, 500}, {1563, 15625, 617}, {157, 1563, 2}} {
			tt, v, m := sz.t, sz.v, sz.m
			eq := func(what string, got, want Profile) {
				if got != want {
					t.Errorf("%+v t=%v v=%v m=%v: %s: %+v != %+v", em, tt, v, m, what, got, want)
				}
			}
			eq("SegS(1) vs ExMS", em.SegS(1, tt, m), em.ExMS(tt, m))
			eq("SegS(0) vs SelS", em.SegS(0, tt, m), em.SelS(tt, m))
			eq("SegJ(1) vs GJ", em.SegJ(1, tt, v, m), em.GJ(tt, v))
			for _, y := range []float64{0, 0.5, 1} {
				eq("HybJ(0,y) vs NLJ", em.HybJ(0, y, tt, v, m), em.NLJ(tt, v, m))
			}
		}
	}
}

func TestLazyProfilesStructure(t *testing.T) {
	const tt, m, lambda = 100000.0, 5000.0, 15.0

	las := Emit{}.LaS(tt, m, lambda)
	sels := Emit{}.SelS(tt, m)
	exms := Emit{}.ExMS(tt, m)
	// Lazy sort sits between the write-minimal and symmetric extremes:
	// fewer writes than ExMS (it defers materialization), more reads than
	// ExMS, and at least the output's |T| writes.
	if las.Writes < tt || las.Writes >= exms.Writes {
		t.Errorf("LaS writes %v out of [|T|, ExMS %v)", las.Writes, exms.Writes)
	}
	if las.Reads <= exms.Reads || las.Reads > sels.Reads {
		t.Errorf("LaS reads %v out of (ExMS %v, SelS %v]", las.Reads, exms.Reads, sels.Reads)
	}

	const v = 10 * tt
	laj := Emit{}.LaJ(tt, v, m, lambda)
	hj := Emit{}.HJ(tt, v, m)
	// Lazy hash join trades rewrites for re-reads against standard HJ.
	if laj.Writes >= hj.Writes {
		t.Errorf("LaJ writes %v not below HJ %v", laj.Writes, hj.Writes)
	}
	if laj.Reads <= hj.Reads {
		t.Errorf("LaJ reads %v not above HJ %v", laj.Reads, hj.Reads)
	}
	// A higher λ defers materialization further: fewer writes still.
	lajHot := Emit{}.LaJ(tt, v, m, 2)
	if laj.Writes > lajHot.Writes {
		t.Errorf("LaJ writes at λ=15 (%v) above λ=2 (%v)", laj.Writes, lajHot.Writes)
	}

	// Degenerate sizes return empty profiles instead of looping.
	for _, p := range []Profile{
		Emit{}.LaS(0, m, lambda), Emit{}.LaS(tt, 0, lambda),
		Emit{}.LaJ(0, v, m, lambda), Emit{}.LaJ(tt, v, 0, lambda),
	} {
		if p != (Profile{}) {
			t.Errorf("degenerate lazy profile %+v, want zero", p)
		}
	}
}

// Property: profiles are non-negative and monotone in input size.
func TestQuickProfilesSane(t *testing.T) {
	f := func(tRaw, mRaw uint16, x8 uint8) bool {
		tt := float64(tRaw%10000) + 100
		m := float64(mRaw%1000) + 10
		x := float64(x8%101) / 100
		for _, p := range []Profile{
			Emit{}.ExMS(tt, m), Emit{}.SelS(tt, m), Emit{}.SegS(x, tt, m),
			Emit{}.HybS(x, tt, m), Emit{}.GJ(tt, 10*tt), Emit{}.HJ(tt, 10*tt, m),
			Emit{}.NLJ(tt, 10*tt, m), Emit{}.HybJ(x, 1-x, tt, 10*tt, m),
			Emit{}.SegJ(x, tt, 10*tt, m),
			Emit{}.LaS(tt, m, 1+14*x), Emit{}.LaJ(tt, 10*tt, m, 1+14*x),
		} {
			if p.Reads < 0 || p.Writes < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// feedEmits are the output shapes a fed sort stage can have: an order-by
// (as profiled), a group-by's fold (re-sized, serial), and either one
// handing its own result on to the next fed stage.
var feedEmits = []Emit{{}, {Out: 700}, {Serial: true}, {Out: 700, Serial: true}, {Handed: true}, {Out: 700, Serial: true, Handed: true}}

// TestFedExMSIsExMSMinusTheInputRead: at every output shape a fed ExMS
// is ExMS less the one read of its input, with the run writes serial —
// so at P > 1 it costs exactly that read's parallel share less and the
// run writes' lost overlap more.
func TestFedExMSIsExMSMinusTheInputRead(t *testing.T) {
	for _, em := range feedEmits {
		for _, sz := range []struct{ t, m float64 }{{6905, 145}, {782, 34}, {782, 3}, {47, 2}} {
			pull, fed := em.ExMS(sz.t, sz.m), em.FedExMS(sz.t, sz.m)
			want := pull
			want.Reads -= sz.t
			want.SerialWrites += sz.t
			if fed != want {
				t.Errorf("%+v t=%v m=%v: FedExMS %+v, want ExMS %+v less t reads with t serial writes", em, sz.t, sz.m, fed, pull)
			}
			if fed.SerialWrites > fed.Writes || fed.SerialReads > fed.Reads || fed.Reads < 0 {
				t.Errorf("%+v t=%v m=%v: FedExMS %+v is not a profile", em, sz.t, sz.m, fed)
			}
			const lambda, par = 15.0, 4.0
			if got, want := fed.PriceP(1, lambda, par), pull.PriceP(1, lambda, par)-sz.t/par+lambda*sz.t*(1-1/par); math.Abs(got-want) > 1e-9*want {
				t.Errorf("%+v t=%v m=%v: FedExMS priced %.9g at P=4, want %.9g", em, sz.t, sz.m, got, want)
			}
			if got, want := fed.PriceP(1, lambda, 1), pull.PriceP(1, lambda, 1)-sz.t; math.Abs(got-want) > 1e-9*want {
				t.Errorf("%+v t=%v m=%v: FedExMS priced %.9g at P=1, want ExMS − t = %.9g", em, sz.t, sz.m, got, want)
			}
		}
	}
	if got := (Emit{}).FedExMS(0, 10); got != (Profile{}) {
		t.Errorf("FedExMS of nothing = %+v, want zero", got)
	}
}

// TestHandedOutputMovesToTheConsumer: a producer whose consumer prices its
// result (Emit.Handed) carries no output writes in any profile, and what it
// dropped is exactly the term it carried before — out buffers, serial
// where the producer's emission was — so producer + that term (the
// consumer's stored option adds it back as its temp) prices what the
// two stages priced before the term moved, at any P.
func TestHandedOutputMovesToTheConsumer(t *testing.T) {
	const tt, v, m, lambda, out = 782.0, 7813.0, 200.0, 15.0, 6905.0
	for _, serial := range []bool{false, true} {
		before, handed := Emit{Out: out, Serial: serial}, Emit{Out: out, Serial: serial, Handed: true}
		for name, f := range map[string]func(Emit) Profile{
			"NLJ":  func(e Emit) Profile { return e.NLJ(tt, v, m) },
			"GJ":   func(e Emit) Profile { return e.GJ(tt, v) },
			"HJ":   func(e Emit) Profile { return e.HJ(tt, v, m) },
			"LaJ":  func(e Emit) Profile { return e.LaJ(tt, v, m, lambda) },
			"HybJ": func(e Emit) Profile { return e.HybJ(0.5, 0.5, tt, v, m) },
			"SegJ": func(e Emit) Profile { return e.SegJ(0.5, tt, v, m) },
			"ExMS": func(e Emit) Profile { return e.ExMS(v, m) },
			"SelS": func(e Emit) Profile { return e.SelS(v, m) },
			"SegS": func(e Emit) Profile { return e.SegS(0.4, v, m) },
			"HybS": func(e Emit) Profile { return e.HybS(0.5, v, m) },
			"LaS":  func(e Emit) Profile { return e.LaS(v, m, lambda) },
			"fed":  func(e Emit) Profile { return e.FedExMS(v, m) },
		} {
			was, now := f(before), f(handed)
			moved := Profile{Writes: was.Writes - now.Writes, SerialWrites: was.SerialWrites - now.SerialWrites}
			if moved.Writes != out || now.Reads != was.Reads || now.SerialReads != was.SerialReads {
				t.Errorf("%s serial=%v: handed output dropped %+v from %+v, want exactly the %v output writes", name, serial, moved, was, out)
			}
			if moved.SerialWrites < 0 || moved.SerialWrites > out {
				t.Errorf("%s serial=%v: the dropped term %+v is not a share of the output", name, serial, moved)
			}
			for _, par := range []float64{1, 4} {
				sum := now.PriceP(1, lambda, par) + moved.PriceP(1, lambda, par)
				if want := was.PriceP(1, lambda, par); math.Abs(sum-want) > 1e-9*want {
					t.Errorf("%s serial=%v P=%.0f: producer %.9g + moved term %.9g ≠ %.9g before the move", name, serial, par, now.PriceP(1, lambda, par), moved.PriceP(1, lambda, par), want)
				}
			}
		}
	}
}

// TestSourceChargesEveryLeftScan: Emit.Source re-prices what each scan
// of a join's left input reads where it lies, and nothing else — the
// partitions, tables and writes stay at t — once per scan the profile
// makes of the source: NLJ, GJ, HJ and HybJ one, LaJ one per lazy pass,
// SegJ its initial scan and one per re-scanned partition.
func TestSourceChargesEveryLeftScan(t *testing.T) {
	const tb, v, m, lambda = 391.0, 7813.0, 162.0, 15.0
	src := Emit{Source: 2 * tb}
	k := math.Ceil(1.2 * tb / m)
	for _, c := range []struct {
		name  string
		scans float64
		price func(em Emit) Profile
	}{
		{"NLJ", 1, func(em Emit) Profile { return em.NLJ(tb, v, m) }},
		{"GJ", 1, func(em Emit) Profile { return em.GJ(tb, v) }},
		{"HJ", 1, func(em Emit) Profile { return em.HJ(tb, v, m) }},
		{"HybJ", 1, func(em Emit) Profile { return em.HybJ(0.5, 0.5, tb, v, m) }},
		{"LaJ", math.Max(1, float64(LazyHashJoinMaterializeIteration(int(k), lambda))), func(em Emit) Profile { return em.LaJ(tb, v, m, lambda) }},
		{"SegJ", 1 + k - math.Floor(0.5*k), func(em Emit) Profile { return em.SegJ(0.5, tb, v, m) }},
	} {
		held, read := c.price(Emit{}), c.price(src)
		if read.Writes != held.Writes || read.SerialWrites != held.SerialWrites {
			t.Errorf("%s: the source's width moved the writes: %+v vs %+v", c.name, read, held)
		}
		if got, want := read.Reads-held.Reads, c.scans*tb; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s: a source twice t reads %.1f more buffers, want %.0f scans × t = %.1f", c.name, got, c.scans, want)
		}
	}
}
