package cost

import (
	"math"
	"testing"
)

// shippedProfiles is one profile per shipped algorithm at the given point.
func shippedProfiles(tt, v, m, lambda float64) map[string]Profile {
	return map[string]Profile{
		"ExMS":      Emit{}.ExMS(tt, m),
		"SelS":      Emit{}.SelS(tt, m),
		"SegS(0.6)": Emit{}.SegS(0.6, tt, m),
		"HybS(0.4)": Emit{}.HybS(0.4, tt, m),
		"LaS":       Emit{}.LaS(tt, m, lambda),
		"GJ":        Emit{}.GJ(tt, v),
		"NLJ":       Emit{}.NLJ(tt, v, m),
		"HJ":        Emit{}.HJ(tt, v, m),
		"LaJ":       Emit{}.LaJ(tt, v, m, lambda),
		"HybJ":      Emit{}.HybJ(0.5, 0.5, tt, v, m),
		"SegJ(0.5)": Emit{}.SegJ(0.5, tt, v, m),
	}
}

// TestPricePSerialConsistency: price never increases with par (the
// serial floor is the limit).
func TestPricePSerialConsistency(t *testing.T) {
	const tt, v, m, lambda = 100000.0, 300000.0, 5000.0, 15.0
	for name, p := range shippedProfiles(tt, v, m, lambda) {
		prev := p.PriceP(1, lambda, 1)
		for _, par := range []float64{2, 4, 8, 16} {
			cur := p.PriceP(1, lambda, par)
			if cur > prev+1e-9 {
				t.Errorf("%s: price rose from %v to %v at par=%v", name, prev, cur, par)
			}
			floor := p.SerialReads + p.SerialWrites*lambda
			if cur < floor-1e-9 {
				t.Errorf("%s: price %v fell below serial floor %v at par=%v", name, cur, floor, par)
			}
			prev = cur
		}
	}
}

// TestPricePSerialInvariant: fully serial profiles gain nothing from
// parallelism; fully parallel ones divide exactly by par.
func TestPricePSerialInvariant(t *testing.T) {
	const tt, v, m, lambda = 100000.0, 300000.0, 5000.0, 15.0
	for name, p := range map[string]Profile{
		"SelS": Emit{}.SelS(tt, m),
		"LaS":  Emit{}.LaS(tt, m, lambda),
		"HJ":   Emit{}.HJ(tt, v, m),
		"LaJ":  Emit{}.LaJ(tt, v, m, lambda),
	} {
		if got, want := p.PriceP(1, lambda, 8), p.PriceP(1, lambda, 1); math.Abs(got-want) > 1e-9 {
			t.Errorf("%s is serial but PriceP(8) = %v, PriceP(1) = %v", name, got, want)
		}
	}
	for name, p := range map[string]Profile{
		"ExMS": Emit{}.ExMS(tt, m),
		"GJ":   Emit{}.GJ(tt, v),
	} {
		if got, want := p.PriceP(1, lambda, 8), p.PriceP(1, lambda, 1)/8; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s is fully parallel but PriceP(8) = %v, want %v", name, got, want)
		}
	}
}

// TestBestSortPlanPShiftsChoice: at the paper's λ the write-minimal
// serial sorts win small memories serially, but parallelism discounts
// ExMS/HybS and must never make the chosen plan more expensive.
func TestBestSortPlanPShiftsChoice(t *testing.T) {
	const tt, m, lambda = 100000.0, 5000.0, 15.0
	serial := BestSortPlanP(tt, m, lambda, 1)
	prev := serial.Cost
	for _, par := range []float64{2, 4, 8} {
		plan := BestSortPlanP(tt, m, lambda, par)
		if plan.Cost > prev+1e-9 {
			t.Errorf("best sort cost rose from %v to %v at par=%v", prev, plan.Cost, par)
		}
		prev = plan.Cost
	}
	// At high parallelism the fully parallel ExMS outruns every
	// serial-floored candidate at this operating point.
	if plan := BestSortPlanP(tt, m, lambda, 64); plan.Algo != SortExMS && plan.Algo != SortHybS {
		t.Errorf("par=64 picked %s (cost %v), want a parallel-phase sort", plan.Algo, plan.Cost)
	}
}

// TestBestJoinPlanPMonotone mirrors the sort check for joins.
func TestBestJoinPlanPMonotone(t *testing.T) {
	const tt, v, m, lambda = 100000.0, 300000.0, 5000.0, 15.0
	serial := BestJoinPlanP(tt, v, m, lambda, 1)
	prev := serial.Cost
	for _, par := range []float64{2, 4, 8} {
		plan := BestJoinPlanP(tt, v, m, lambda, par)
		if plan.Cost > prev+1e-9 {
			t.Errorf("best join cost rose from %v to %v at par=%v", prev, plan.Cost, par)
		}
		prev = plan.Cost
	}
}

// emittedProfiles is shippedProfiles emitting as e describes, each with
// the size of its output term as profiled.
func emittedProfiles(e Emit, tt, v, m, lambda float64) (map[string]Profile, map[string]float64) {
	sorts := map[string]Profile{
		"ExMS":      e.ExMS(tt, m),
		"SelS":      e.SelS(tt, m),
		"SegS(0.6)": e.SegS(0.6, tt, m),
		"SegS(1)":   e.SegS(1, tt, m),
		"HybS(0.4)": e.HybS(0.4, tt, m),
		"LaS":       e.LaS(tt, m, lambda),
	}
	joins := map[string]Profile{
		"GJ":        e.GJ(tt, v),
		"NLJ":       e.NLJ(tt, v, m),
		"HJ":        e.HJ(tt, v, m),
		"LaJ":       e.LaJ(tt, v, m, lambda),
		"HybJ":      e.HybJ(0.5, 0.5, tt, v, m),
		"SegJ(0.5)": e.SegJ(0.5, tt, v, m),
	}
	out := make(map[string]float64, len(sorts)+len(joins))
	for name := range sorts {
		out[name] = tt // a sort materializes its input's size
	}
	for name, p := range joins {
		sorts[name], out[name] = p, v // a join the paper's |V| single-record results
	}
	return sorts, out
}

// TestEmitResizesOutputTerm: an Emit moves only the output term of a
// profile. The zero Emit is the plain constructor; re-sizing to out
// buffers shifts the price by λ·(out − output) at par = 1 and leaves the
// reads alone; the serial share never exceeds the whole at any size (so
// no price is negative or below its serial floor); and a serialized
// emission keeps the totals, costs at par = 1 what it did, and at par
// costs more by exactly the part of the final pass that fanned out —
// nothing for the algorithms whose output was serial already, the whole
// merge (t reads, t writes) for ExMS.
func TestEmitResizesOutputTerm(t *testing.T) {
	const tt, v, m, lambda = 100000.0, 300000.0, 5000.0, 15.0
	plain, output := emittedProfiles(Emit{}, tt, v, m, lambda)
	for name, p := range shippedProfiles(tt, v, m, lambda) {
		if plain[name] != p {
			t.Errorf("%s: Emit{} profile %+v, plain constructor %+v", name, plain[name], p)
		}
	}
	serial, _ := emittedProfiles(Emit{Serial: true}, tt, v, m, lambda)
	for name, p := range plain {
		s := serial[name]
		if s.Reads != p.Reads || s.Writes != p.Writes || s.PriceP(1, lambda, 1) != p.PriceP(1, lambda, 1) {
			t.Errorf("%s: a serial emission changed the totals: %+v from %+v", name, s, p)
		}
		if s.SerialReads < p.SerialReads || s.SerialWrites < p.SerialWrites || s.SerialWrites > s.Writes || s.SerialReads > s.Reads {
			t.Errorf("%s: a serial emission left serial shares %+v from %+v", name, s, p)
		}
		fanned := s.SerialWrites - p.SerialWrites
		if s.SerialReads-p.SerialReads != fanned || fanned > output[name] {
			t.Errorf("%s: serializing moved %v reads and %v writes of a %v-buffer output term", name, s.SerialReads-p.SerialReads, fanned, output[name])
		}
		if want := p.PriceP(1, lambda, 4) + 0.75*fanned*(1+lambda); math.Abs(s.PriceP(1, lambda, 4)-want) > 1e-6*want {
			t.Errorf("%s: serial emission prices %v at par=4, want %v", name, s.PriceP(1, lambda, 4), want)
		}
		for _, e := range []Emit{{Out: 1}, {Out: output[name] / 7}, {Out: 3 * output[name]}, {Out: output[name] / 7, Serial: true}} {
			resized, _ := emittedProfiles(e, tt, v, m, lambda)
			q := resized[name]
			if want := p.PriceP(1, lambda, 1) + lambda*(e.Out-output[name]); q.Reads != p.Reads || math.Abs(q.PriceP(1, lambda, 1)-want) > 1e-6*want {
				t.Errorf("%s: %+v prices %v at par=1, want %v", name, e, q.PriceP(1, lambda, 1), want)
			}
			if q.SerialWrites < 0 || q.SerialWrites > q.Writes+1e-9 || q.SerialReads > q.Reads+1e-9 {
				t.Errorf("%s: %+v left serial %v/%v of %v/%v reads/writes", name, e, q.SerialReads, q.SerialWrites, q.Reads, q.Writes)
			}
			if c, floor := q.PriceP(1, lambda, 4), q.SerialReads+lambda*q.SerialWrites; !(c > 0) || c < floor-1e-9 {
				t.Errorf("%s: %+v prices %v at par=4 (serial floor %v)", name, e, c, floor)
			}
		}
	}
	if got := serial["ExMS"].SerialWrites; got != tt {
		t.Errorf("ExMS into a sink keeps %v of its %v output buffers serial, want all", got, tt)
	}
	for _, name := range []string{"SelS", "SegS(0.6)", "LaS", "HJ", "LaJ"} {
		if serial[name] != plain[name] {
			t.Errorf("%s emits serially as profiled, yet a sink changed it: %+v from %+v", name, serial[name], plain[name])
		}
	}
	if serial["SegS(1)"] != serial["ExMS"] {
		t.Errorf("SegS(1) into a sink %+v, want ExMS's %+v", serial["SegS(1)"], serial["ExMS"])
	}
}

// TestBestPlanEmitIdentity: the emit-aware searches at the zero Emit are
// the plain searches, and an Emit reaches every candidate — the returned
// plan carries the rewritten profile and its price.
func TestBestPlanEmitIdentity(t *testing.T) {
	const tt, v, m, lambda = 20000.0, 60000.0, 800.0, 15.0
	for _, par := range []float64{1, 4} {
		if got, want := BestSortPlanEmit(tt, m, lambda, par, Emit{}), BestSortPlanP(tt, m, lambda, par); got != want {
			t.Errorf("par=%v: BestSortPlanEmit(Emit{}) = %+v, BestSortPlanP = %+v", par, got, want)
		}
		if got, want := BestJoinPlanEmit(tt, v, m, lambda, par, Emit{}), BestJoinPlanP(tt, v, m, lambda, par); got != want {
			t.Errorf("par=%v: BestJoinPlanEmit(Emit{}) = %+v, BestJoinPlanP = %+v", par, got, want)
		}
		fold := Emit{Out: tt / 10, Serial: true}
		best := BestSortPlanEmit(tt, m, lambda, par, fold)
		if best.Profile.SerialWrites > best.Profile.Writes || best.Cost != best.Profile.PriceP(1, lambda, par) {
			t.Errorf("par=%v: folded best plan %+v does not carry the folded profile and its price", par, best)
		}
		if plain := BestSortPlanP(tt, m, lambda, par); !(best.Cost < plain.Cost) {
			t.Errorf("par=%v: folding nine tenths of the output away priced %v, plain sort %v", par, best.Cost, plain.Cost)
		}
		if out := BestJoinPlanEmit(tt, v, m, lambda, par, Emit{Out: 2 * v}); !(out.Cost > BestJoinPlanP(tt, v, m, lambda, par).Cost) {
			t.Errorf("par=%v: a join writing twice the output priced %v, no more than the plain %v", par, out.Cost, BestJoinPlanP(tt, v, m, lambda, par).Cost)
		}
	}
}

// TestLimitBoundsSelectionOnly: an Emit's Limit — what an order-by's
// limit takes of its output — is read by SelS alone. Emit{} prices SelS
// at its closed form, ⌈t/m⌉ passes over t and t writes, and every other
// candidate as the plain constructor (TestEmitResizesOutputTerm); a
// Limit leaves every other profile as it was, and makes SelS
// ⌈min(t, L)/m⌉ passes over t and min(t, L) writes, all serial as
// before, which for L ≥ t is the unbounded SelS. At serve_point's sizes
// (5 000 survivors of 80 B in 1 024-B buffers, a 400 000 B share, 100
// rows taken, λ = 15) the planner's sort is SelS at one pass, where
// unbounded it would take two.
func TestLimitBoundsSelectionOnly(t *testing.T) {
	const tt, v, m, lambda = 100000.0, 300000.0, 5000.0, 15.0
	plain, _ := emittedProfiles(Emit{}, tt, v, m, lambda)
	if want := (Profile{Reads: 20 * tt, Writes: tt, SerialReads: 20 * tt, SerialWrites: tt}); plain["SelS"] != want {
		t.Errorf("Emit{}.SelS = %+v, want the closed form %+v", plain["SelS"], want)
	}
	for _, limit := range []float64{0.1, 1, 7.8125, m - 1, m, 2.5 * m, tt - 1, tt, 3 * tt} {
		bounded, _ := emittedProfiles(Emit{Limit: limit}, tt, v, m, lambda)
		for name, p := range plain {
			if name != "SelS" && bounded[name] != p {
				t.Errorf("Limit %v moved %s: %+v from %+v", limit, name, bounded[name], p)
			}
		}
		out := math.Min(tt, limit)
		passes := math.Ceil(out / m)
		want := Profile{Reads: passes * tt, Writes: out, SerialReads: passes * tt, SerialWrites: out}
		got := bounded["SelS"]
		if got != want {
			t.Errorf("Emit{Limit: %v}.SelS = %+v, want %v passes over t and %v writes: %+v", limit, got, passes, out, want)
		}
		if limit >= tt && got != plain["SelS"] {
			t.Errorf("Emit{Limit: %v}.SelS = %+v at or above t, want the unbounded %+v", limit, got, plain["SelS"])
		}
		if serial := (Emit{Limit: limit, Serial: true}).SelS(tt, m); serial != got {
			t.Errorf("Limit %v into a sink: %+v, want %+v (SelS emits serially as profiled)", limit, serial, got)
		}
	}

	st := math.Ceil(5000 * 80 / 1024.0) // t in whole buffers, as a stage is sized
	const sm, sl = 400000 / 1024.0, 100 * 80 / 1024.0
	best := BestSortPlanEmit(st, sm, lambda, 1, Emit{Limit: sl})
	if best.Algo != SortSelS || best.Profile.Reads != st || best.Profile.Writes != sl {
		t.Errorf("serve_point's bounded sort: %s %+v, want SelS reading t = %v once and writing L = %v", best.Algo, best.Profile, st, sl)
	}
	if unbounded := (Emit{}).SelS(st, sm); unbounded.Reads != 2*st {
		t.Errorf("serve_point's sort unbounded: SelS reads %v, want two passes over t = %v", unbounded.Reads, st)
	}
}
