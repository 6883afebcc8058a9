package sorts

import (
	"strings"
	"testing"

	"wlpm/internal/algo"
	"wlpm/internal/pmem"
	"wlpm/internal/record"
	"wlpm/internal/storage/all"
	"wlpm/internal/testkit"
)

// Failure injection: a device too small for the algorithm's temporaries
// must surface a clean allocation error, never a panic or corruption.
func TestSortDeviceExhaustion(t *testing.T) {
	for _, backend := range []string{"blocked", "dynarray"} {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			// Input fits, temporaries don't: 2000 records = 160 KB on a
			// 256 KB device leaves no room for runs + output.
			dev := pmem.MustOpen(pmem.Config{Capacity: 256 << 10})
			f, err := all.New(backend, dev, 0)
			if err != nil {
				t.Fatal(err)
			}
			in, err := f.Create("in", record.Size)
			if err != nil {
				t.Fatal(err)
			}
			if err := record.Generate(2000, 1, in.Append); err != nil {
				// The dynarray backend may already exhaust the device
				// while loading (doubling holds old+new regions); that
				// is an acceptable clean failure for this test.
				if strings.Contains(err.Error(), "out of device memory") {
					return
				}
				t.Fatal(err)
			}
			if err := in.Close(); err != nil {
				t.Fatal(err)
			}
			out, err := f.Create("out", record.Size)
			if err != nil {
				t.Fatal(err)
			}
			env := algo.NewEnv(f, 100*record.Size)
			err = NewExternalMergeSort().Sort(env, in, out)
			if err == nil {
				t.Fatal("sort on an exhausted device succeeded")
			}
			if !strings.Contains(err.Error(), "out of device memory") {
				t.Fatalf("unexpected error: %v", err)
			}
		})
	}
}

// The filesystem backends surface inode exhaustion the same way.
func TestSortInodeExhaustion(t *testing.T) {
	f := testkit.Factory(t, "pmfs", pmem.Config{Capacity: kernelDevice})
	in, err := f.Create("in", record.Size)
	if err != nil {
		t.Fatal(err)
	}
	if err := record.Generate(60000, 1, in.Append); err != nil {
		t.Fatal(err)
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := f.Create("out", record.Size)
	if err != nil {
		t.Fatal(err)
	}
	// A 15-record budget over 60 k records forms thousands of runs —
	// more collections than the filesystem has inodes.
	env := algo.NewEnv(f, 15*record.Size)
	if err := NewExternalMergeSort().Sort(env, in, out); err == nil {
		t.Fatal("expected inode exhaustion, sort succeeded")
	} else if !strings.Contains(err.Error(), "inode") {
		t.Fatalf("unexpected error: %v", err)
	}
}
