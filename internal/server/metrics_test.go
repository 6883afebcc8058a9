package server

import (
	"testing"
	"time"

	"wlpm/internal/broker"
)

// TestSnapshotMergesQueueAndWeights pins the snapshot contract after
// the lock-discipline restructuring: the broker's queues and the weights
// arrive as plain maps computed before the call, never as callbacks that
// would take other locks under metricsRegistry.mu.
func TestSnapshotMergesQueueAndWeights(t *testing.T) {
	m := newMetricsRegistry()
	m.tenant("alpha").queries.Add(3)
	m.tenant("alpha").rows.Add(42)
	m.tenant("beta").queries.Add(1)

	out := m.snapshot(
		map[string]broker.Queue{"alpha": {Waiting: 2, Waited: 7 * time.Millisecond}},
		map[string]int{"alpha": 5, "beta": 0},
	)
	if len(out) != 2 {
		t.Fatalf("snapshot has %d tenants, want 2", len(out))
	}
	a := out["alpha"]
	if a.Queries != 3 || a.Rows != 42 || a.Queued != 2 || a.GateWaitMs != 7 || a.Weight != 5 {
		t.Errorf("alpha = %+v, want queries=3 rows=42 queued=2 gate_wait_ms=7 weight=5", a)
	}
	b := out["beta"]
	if b.Queries != 1 || b.Queued != 0 || b.GateWaitMs != 0 || b.Weight != 1 {
		t.Errorf("beta = %+v, want queries=1 queued=0 gate_wait_ms=0 weight=1 (floor)", b)
	}
}

func TestWeightOfFloorsAtOne(t *testing.T) {
	weights := map[string]int{"big": 7, "zero": 0, "neg": -3}
	for name, want := range map[string]int{"big": 7, "zero": 1, "neg": 1, "absent": 1} {
		if got := weightOf(weights, name); got != want {
			t.Errorf("weightOf(%q) = %d, want %d", name, got, want)
		}
	}
}

// TestTenantWeightsSnapshot: the server copies configured weights out
// under s.mu so the registry renders from plain data.
func TestTenantWeightsSnapshot(t *testing.T) {
	s, _ := newTestServer(t,
		Tenant{Name: "gold", Weight: 4},
		Tenant{Name: "steerage", Weight: 0},
	)
	w := s.tenantWeights()
	if w["gold"] != 4 {
		t.Errorf("gold weight = %d, want 4 (as configured)", w["gold"])
	}
	if got := weightOf(w, "steerage"); got != 1 {
		t.Errorf("steerage effective weight = %d, want 1", got)
	}
}
