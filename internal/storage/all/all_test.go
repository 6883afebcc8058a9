package all

import (
	"testing"

	"wlpm/internal/pmem"
	"wlpm/internal/storage"
)

func TestNewCoversEveryBackend(t *testing.T) {
	if len(backends) != len(storage.Backends) {
		t.Errorf("%d backends built, storage.Backends lists %d", len(backends), len(storage.Backends))
	}
	for _, b := range storage.Backends {
		dev := pmem.MustOpen(pmem.Config{Capacity: 16 << 20})
		f, err := New(b, dev, 0)
		if err != nil {
			t.Fatalf("New(%q): %v", b, err)
		}
		if f.Name() != b {
			t.Errorf("New(%q).Name() = %q", b, f.Name())
		}
	}
}

func TestNewRejectsUnknownBackend(t *testing.T) {
	if _, err := New("tape", pmem.MustOpen(pmem.Config{Capacity: 1 << 20}), 0); err == nil {
		t.Error("New(unknown backend) succeeded")
	}
}

func TestNewPropagatesFormatErrors(t *testing.T) {
	// A device too small for filesystem metadata must fail cleanly.
	tiny := pmem.MustOpen(pmem.Config{Capacity: 4 << 10})
	if _, err := New("pmfs", tiny, 0); err == nil {
		t.Error("pmfs on a tiny device succeeded")
	}
	if _, err := New("ramdisk", tiny, 0); err == nil {
		t.Error("ramdisk on a tiny device succeeded")
	}
}
