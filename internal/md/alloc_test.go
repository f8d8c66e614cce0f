package md

import (
	"testing"

	"dssddi/internal/mat"
	"dssddi/internal/optim"
)

// steadyEpochBudget bounds the allocations of one steady-state MDGCN
// training epoch on serial kernels.
const steadyEpochBudget = 100

// steadyModel trains a small MDGCN so its tape is recorded and its
// counterfactual cache warm, and returns it with Train's epoch on a
// fresh optimizer, already run once to warm that optimizer.
// Serial kernels keep allocation counts deterministic until the test
// ends.
func steadyModel(t *testing.T) (*Model, func()) {
	t.Helper()
	mat.SetWorkers(1)
	t.Cleanup(func() { mat.SetWorkers(0) })
	d := smallDataset(31)
	cfg := DefaultConfig()
	cfg.Hidden = 16
	cfg.Epochs = 40 // enough epochs that the miner cache covers most pairs
	cfg.SelectOnVal = false
	m := NewModel(d, nil, cfg)
	m.Train()

	opt := optim.NewAdam(cfg.LR)
	opt.WeightDecay = cfg.WeightDecay
	step := func() { m.epoch(opt) }
	step()
	return m, step
}

// TestSteadyStateEpochAllocBudget is the MDGCN half of the training
// allocation gate: once the tape is recorded and the counterfactual
// cache is warm, a training epoch must stay within a fixed small
// allocation budget.
func TestSteadyStateEpochAllocBudget(t *testing.T) {
	_, step := steadyModel(t)
	if got := testing.AllocsPerRun(10, step); got > steadyEpochBudget {
		t.Fatalf("steady-state MDGCN epoch allocates %.1f objects, budget %d", got, steadyEpochBudget)
	}
}

// TestValidationReplaysEncodePrefix pins how mid-training validation
// gets its drug representations: inferDrugReps replays encode, the
// first ops of the training graph, on the retained tape. The graph
// must keep its size across that replay, and the epoch after it must
// stay within the steady-state budget; both fail if encode ever stops
// being the training graph's prefix, because the replay would then cut
// the graph and the next epoch would record it again.
func TestValidationReplaysEncodePrefix(t *testing.T) {
	m, step := steadyModel(t)
	nodes := m.tape.NumNodes()
	m.inferDrugReps()
	if got := m.tape.NumNodes(); got != nodes {
		t.Fatalf("inferDrugReps changed the training graph from %d to %d nodes", nodes, got)
	}
	step()
	if got := m.tape.NumNodes(); got != nodes {
		t.Fatalf("the epoch after inferDrugReps changed the graph from %d to %d nodes", nodes, got)
	}
	got := testing.AllocsPerRun(10, func() {
		m.inferDrugReps()
		step()
	})
	if got > steadyEpochBudget {
		t.Fatalf("inferDrugReps plus an epoch allocates %.1f objects, budget %d", got, steadyEpochBudget)
	}
}
