package main

import (
	"bufio"
	"fmt"
	"io"
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

// TestCatalogPricesPrinted: each sort and join row wlcost prints is that
// catalog algorithm's Profile priced as the planner prices it pinned, at
// the same t, m and λ, and the tables name every member of both families.
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
	}
}
