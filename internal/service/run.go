package service

import (
	"context"
	"encoding/json"
	"fmt"

	"idyll/internal/config"
	"idyll/internal/experiment"
	"idyll/internal/stats"
)

// RunFunc executes one canonical spec to completion and returns the result
// payload. The server's default is RunSpec; tests inject stubs to exercise
// queueing, shedding, and shutdown without multi-second simulations.
type RunFunc func(ctx context.Context, spec CanonicalSpec,
	progress func(done, total int, cell string)) ([]byte, error)

// CellResult is the JSON result payload of a cell job: the headline
// measurements of one (app, scheme) run. Field order is fixed by the struct,
// and every value is deterministic given the spec, so payloads are
// byte-identical across recomputations — the property the content-addressed
// cache rests on.
type CellResult struct {
	App            string  `json:"app"`
	Scheme         string  `json:"scheme"`
	ExecCycles     int64   `json:"exec_cycles"`
	Instructions   uint64  `json:"instructions"`
	Accesses       uint64  `json:"accesses"`
	MPKI           float64 `json:"mpki"`
	FarFaults      uint64  `json:"far_faults"`
	Migrations     uint64  `json:"migrations"`
	InvalReceived  uint64  `json:"invals_received"`
	DemandMissMean float64 `json:"demand_miss_mean_cy"`
	DemandMissP99  int64   `json:"demand_miss_p99_cy"`
	MigWaitMean    float64 `json:"migration_wait_mean_cy"`
	NVLinkBytes    uint64  `json:"nvlink_bytes"`
	PCIeBytes      uint64  `json:"pcie_bytes"`
	Summary        string  `json:"summary"`
}

// RunSpec is the production RunFunc: cell jobs run through the experiment
// cell runner (so seeds, and therefore traces, match the suite's), figure
// jobs through the registry. ctx cancellation stops the event loop at the
// next batch boundary.
func RunSpec(ctx context.Context, spec CanonicalSpec,
	progress func(done, total int, cell string)) ([]byte, error) {
	o := spec.Options.WithContext(ctx)
	o.Progress = progress

	switch spec.Kind {
	case KindCell:
		scheme, err := config.SchemeByName(spec.Scheme)
		if err != nil {
			return nil, err
		}
		cells := []experiment.CellSpec{{
			Figure:  spec.Figure,
			App:     spec.App,
			Machine: config.Default(),
			Scheme:  scheme,
		}}
		res, err := experiment.RunCells(o, cells)
		if err != nil {
			return nil, err
		}
		return marshalCellResult(spec, res[0])
	case KindFigure:
		e, err := experiment.Find(spec.Figure)
		if err != nil {
			return nil, err
		}
		tab, err := e.Run(o)
		if err != nil {
			return nil, err
		}
		raw, err := tab.RenderJSON()
		if err != nil {
			return nil, err
		}
		return []byte(raw), nil
	}
	return nil, fmt.Errorf("service: unknown kind %q", spec.Kind)
}

func marshalCellResult(spec CanonicalSpec, st *stats.Sim) ([]byte, error) {
	r := CellResult{
		App:            spec.App,
		Scheme:         spec.Scheme,
		ExecCycles:     int64(st.ExecCycles),
		Instructions:   st.Instructions,
		Accesses:       st.Accesses,
		MPKI:           st.MPKI(),
		FarFaults:      st.FarFaults,
		Migrations:     st.Migrations,
		InvalReceived:  st.InvalReceived,
		DemandMissMean: st.DemandMiss.Mean(),
		DemandMissP99:  int64(st.DemandMiss.Percentile(99)),
		MigWaitMean:    st.MigrationWait.Mean(),
		NVLinkBytes:    st.NVLinkBytes,
		PCIeBytes:      st.PCIeBytes,
		Summary:        st.Summary(),
	}
	raw, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("service: encoding result: %w", err)
	}
	return raw, nil
}
