package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"testing"

	"wlpm/internal/cost"
	"wlpm/internal/joins"
	"wlpm/internal/sorts"
)

// printed runs print with its standard output captured.
func printed(t *testing.T, print func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	done := make(chan string)
	go func() {
		b, err := io.ReadAll(r)
		if err != nil {
			t.Error(err)
		}
		r.Close()
		done <- string(b)
	}()
	print()
	os.Stdout = stdout
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return <-done
}

// tableRows parses the rows of the table that opens out: "spelling
// price" pairs up to the first blank line after the header.
func tableRows(out string) [][2]string {
	var rows [][2]string
	sc := bufio.NewScanner(strings.NewReader(out))
	sc.Scan() // the header
	sc.Scan() // the blank line under it
	for sc.Scan() && sc.Text() != "" {
		if f := strings.Fields(sc.Text()); len(f) == 2 {
			rows = append(rows, [2]string{f[0], f[1]})
		}
	}
	return rows
}

// checkCatalogRows holds a table to its family: every row is a catalog
// spelling printed at its price, and every member in spellings has one.
func checkCatalogRows(t *testing.T, rows [][2]string, spellings []string, price func(spelling string) (float64, error)) {
	t.Helper()
	seen := map[string]bool{}
	for _, r := range rows {
		p, err := price(r[0])
		if err != nil {
			t.Errorf("row %q is no catalog spelling: %v", r[0], err)
			continue
		}
		if want := fmt.Sprintf("%.4g", p); r[1] != want {
			t.Errorf("%s printed %s, its profile prices it %s", r[0], r[1], want)
		}
		name, _, _ := strings.Cut(r[0], ":")
		seen[name] = true
	}
	for _, sp := range spellings {
		if name, _, _ := strings.Cut(sp, ":"); !seen[name] {
			t.Errorf("no %s row", name)
		}
	}
}

// lineOf is the line of out that starts with prefix, less the prefix.
func lineOf(t *testing.T, out, prefix string) string {
	t.Helper()
	for _, l := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(l, prefix); ok {
			return rest
		}
	}
	t.Errorf("no line %q in\n%s", prefix, out)
	return ""
}

// TestCatalogPricesPrinted: each sort and join row wlcost prints is that
// catalog algorithm's Profile priced as the planner prices it pinned, at
// the same t, m and λ, and the tables name every member of both families.
// Below them, Eq. 4's x and the x SegS(auto) places print with their
// SegS prices, and the HybJ saddle with its price beside min(NLJ, GJ).
func TestCatalogPricesPrinted(t *testing.T) {
	for _, at := range []struct{ t, v, m, lambda float64 }{
		{781250, 7812500, 39062, 15},
		{78125, 781250, 3906, 15},
		{4000, 40000, 40, 2},
	} {
		sortOut := printed(t, func() { printSort(at.t, at.m, at.lambda) })
		checkCatalogRows(t, tableRows(sortOut), sorts.Spellings(), func(sp string) (float64, error) {
			a, err := sorts.Parse(sp)
			if err != nil {
				return 0, err
			}
			return a.Profile(cost.Emit{}, at.t, at.m, at.lambda).PriceP(1, at.lambda, 1), nil
		})
		joinOut := printed(t, func() { printJoin(at.t, at.v, at.m, at.lambda) })
		checkCatalogRows(t, tableRows(joinOut), joins.Spellings(), func(sp string) (float64, error) {
			a, err := joins.Parse(sp)
			if err != nil {
				return 0, err
			}
			return a.Profile(cost.Emit{}, at.t, at.v, at.m, at.lambda).PriceP(1, at.lambda, 1), nil
		})

		segs := func(x float64) float64 { return cost.Emit{}.SegS(x, at.t, at.m).PriceP(1, at.lambda, 1) }
		x4, xa := cost.SegmentSortOptimalX(at.t, at.m, at.lambda), cost.SegSKnob(at.t, at.m, at.lambda, 1, cost.Emit{})
		if got, want := lineOf(t, sortOut, "SegS write intensity by Eq. 4:"), fmt.Sprintf(" x = %.4f → price %.4g", x4, segs(x4)); !strings.HasPrefix(got, want) {
			t.Errorf("Eq. 4 line %q, want %q", got, want)
		}
		if got, want := strings.TrimSpace(lineOf(t, sortOut, "SegS(auto) places it at:")), fmt.Sprintf("x = %.4f → price %.4g", xa, segs(xa)); got != want {
			t.Errorf("SegS(auto) line %q, want %q", got, want)
		}
		xh, yh := cost.HybridJoinSaddle(at.t, at.v, at.m, at.lambda)
		hyb := cost.Emit{}.HybJ(xh, yh, at.t, at.v, at.m).PriceP(1, at.lambda, 1)
		floor := math.Min(cost.Emit{}.NLJ(at.t, at.v, at.m).PriceP(1, at.lambda, 1), cost.Emit{}.GJ(at.t, at.v).PriceP(1, at.lambda, 1))
		if got, want := lineOf(t, joinOut, "HybJ saddle point (Eqs. 7–8):"), fmt.Sprintf(" x = %.4f, y = %.4f → price %.4g; min(NLJ, GJ) = %.4g", xh, yh, hyb, floor); got != want {
			t.Errorf("saddle line %q, want %q", got, want)
		}
	}
}

// TestJoinPartitionCount: the partition count printed under the join
// rows is the k the LaJ profile and the kernels use, ⌈f·t/m⌉ — where
// f·t/m is whole too (1.2 · 1000 / 50 = 24), and with it the LaJ
// materialization iteration of that k.
func TestJoinPartitionCount(t *testing.T) {
	out := printed(t, func() { printJoin(1000, 10000, 50, 15) })
	if got, want := lineOf(t, out, "SegJ beats GJ below"), "of k = 24 partitions (Eq. 10)"; !strings.HasSuffix(got, want) {
		t.Errorf("SegJ line %q, want it to end %q", got, want)
	}
	if got, want := lineOf(t, out, "LaJ materialization iteration (λ-consistent Eq. 11):"), " n = 22 of k = 24"; got != want {
		t.Errorf("LaJ line %q, want %q", got, want)
	}
}
