package wlpm

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
)

// TestSessionNamespaceConcurrentMaterialize is the collision regression:
// two sessions materialize the same plan concurrently, both calling
// Create("result"). Before session namespaces the second Create failed
// with the factory's unique-name error; now each session creates inside
// its own namespace and the runs produce byte-identical output.
func TestSessionNamespaceConcurrentMaterialize(t *testing.T) {
	sys := newTestSystem(t, WithMemoryBudget(8<<20))
	dim1, dim2, fact := loadStarTables(t, sys, 300, 3000, "")

	const K = 2
	outs := make([]Collection, K)
	errs := make([]error, K)
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess := sys.Session(WithSessionBudget(1 << 20))
			out, err := sess.Create("result")
			if err != nil {
				errs[i] = err
				return
			}
			outs[i] = out
			_, errs[i] = starQuery(sess, dim1, dim2, fact).RunCtx(context.Background(), out)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	var ref []byte
	for i, out := range outs {
		var buf bytes.Buffer
		it := out.Scan()
		for {
			rec, err := it.Next()
			if err != nil {
				break
			}
			buf.Write(rec)
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = buf.Bytes()
			if len(ref) == 0 {
				t.Fatal("empty materialized result")
			}
			continue
		}
		if !bytes.Equal(ref, buf.Bytes()) {
			t.Fatalf("session %d materialized different bytes than session 0", i)
		}
	}
	if outs[0].Name() == outs[1].Name() {
		t.Fatalf("both sessions materialized into %q — namespaces did not separate them", outs[0].Name())
	}
}

// TestSessionNamespaceShape pins the namespace format and the closed-
// session behaviour.
func TestSessionNamespaceShape(t *testing.T) {
	sys := newTestSystem(t)
	plain := sys.Session()
	labelled := sys.Session(WithTenant("alpha"))
	if plain.Namespace() == labelled.Namespace() {
		t.Fatalf("sessions share namespace %q", plain.Namespace())
	}
	if !strings.HasPrefix(labelled.Namespace(), "alpha.") {
		t.Fatalf("tenant-labelled namespace %q lacks the tenant prefix", labelled.Namespace())
	}
	if labelled.Tenant() != "alpha" {
		t.Fatalf("Tenant() = %q, want alpha", labelled.Tenant())
	}
	c, err := labelled.Create("out")
	if err != nil {
		t.Fatal(err)
	}
	if want := labelled.Namespace() + "out"; c.Name() != want {
		t.Fatalf("created %q, want %q", c.Name(), want)
	}
	if err := labelled.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := labelled.Create("out2"); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Create on closed session: %v, want ErrSessionClosed", err)
	}
}
