package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"idyll"
)

// The simulator workloads run their system under test in a child process
// (perfbench -sut <workload>), so set-up time includes what a researcher
// pays to start the program and resolve its inputs, and peak memory is the
// simulator's own. The parent sends one seed per operation on stdin and
// times the reply.

// Workload scales. fig11-suite is the researcher's batch regeneration of
// Figure 11 (9 apps × 6 schemes = 54 cells); scaleout-16gpu is one
// fig18-style cell pair on a 16-GPU machine.
const (
	fig11CUs      = 4
	fig11Accesses = 200

	scaleGPUs     = 16
	scaleCUs      = 4
	scaleAccesses = 150
	scaleApp      = "PR"
	// scaleThreshold is the suite's access-counter threshold (the paper's
	// 256 scaled by experiment.TraceScaleFactor), as Figure 18 uses.
	scaleThreshold = 2
)

type sutConfig struct {
	Jobs int `json:"jobs"`
}

type sutCall struct {
	Seed  uint64 `json:"seed"`
	Trace bool   `json:"trace,omitempty"` // return the calls made, as spans
}

// childSpan is a call the child made while serving one operation, with
// offsets from when it received the call.
type childSpan struct {
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

type sutReply struct {
	Ready    bool               `json:"ready,omitempty"`
	Error    string             `json:"error,omitempty"`
	Digest   string             `json:"digest,omitempty"`
	Accesses float64            `json:"accesses,omitempty"`
	Values   map[string]float64 `json:"values,omitempty"`
	Spans    []childSpan        `json:"spans,omitempty"`
}

// sutMain serves one workload's operations until stdin closes.
func sutMain(workload string) error {
	dec := json.NewDecoder(os.Stdin)
	enc := json.NewEncoder(os.Stdout)
	var cfg sutConfig
	if err := dec.Decode(&cfg); err != nil {
		return fmt.Errorf("reading config: %w", err)
	}
	var serve func(seed uint64, trace bool) (sutReply, error)
	var err error
	switch workload {
	case "fig11-suite":
		serve, err = fig11Server(cfg)
	case "scaleout-16gpu":
		serve, err = scaleoutServer()
	default:
		err = fmt.Errorf("no simulator workload %q", workload)
	}
	if err != nil {
		return err
	}
	if err := enc.Encode(sutReply{Ready: true}); err != nil {
		return err
	}
	for {
		var c sutCall
		if err := dec.Decode(&c); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		rep, err := serve(c.Seed, c.Trace)
		if err != nil {
			rep = sutReply{Error: err.Error()}
		}
		if err := enc.Encode(rep); err != nil {
			return err
		}
	}
}

// fig11Server resolves the Figure 11 experiment and the app registry, then
// regenerates the figure once per call. It counts the cells the runner
// completes: the reply's access count is that count times the accesses a
// cell is configured for, which traced runs check against the per-cell
// stats.Sim.
func fig11Server(cfg sutConfig) (func(uint64, bool) (sutReply, error), error) {
	if _, ok := idyll.Experiments()["fig11"]; !ok {
		return nil, errors.New("experiment fig11 not registered")
	}
	if len(idyll.Apps()) == 0 {
		return nil, errors.New("no applications registered")
	}
	gpus := idyll.DefaultMachine().NumGPUs
	return func(seed uint64, trace bool) (sutReply, error) {
		o := fig11Options(seed, cfg.Jobs)
		cells := 0
		o.Progress = func(int, int, string) { cells++ }
		t0 := time.Now()
		tab, err := idyll.Experiment("fig11", o)
		if err != nil {
			return sutReply{}, err
		}
		d := time.Since(t0)
		ave, err := tab.Get(idyll.IDYLL().Name, "Ave.")
		if err != nil {
			return sutReply{}, err
		}
		zero, err := tab.Get(idyll.ZeroLatency().Name, "Ave.")
		if err != nil {
			return sutReply{}, err
		}
		rep := sutReply{
			Digest:   digest(tab.Render()),
			Accesses: float64(cells * gpus * fig11CUs * fig11Accesses),
			// Every row is a scheme run against one baseline run per app.
			Values: map[string]float64{"idyll_ave": ave, "zero_ave": zero, "cells": float64(cells),
				"planned_cells": float64((len(tab.Rows) + 1) * (len(tab.Columns) - 1))},
		}
		if trace {
			rep.Spans = []childSpan{{"idyll.Experiment", 0, d.Nanoseconds()}}
		}
		return rep, nil
	}, nil
}

func fig11Options(seed uint64, jobs int) idyll.ExperimentOptions {
	o := idyll.DefaultExperimentOptions()
	o.CUsPerGPU, o.AccessesPerCU, o.Seed, o.Jobs = fig11CUs, fig11Accesses, seed, jobs
	return o
}

// scaleoutPair is the fig18-style configuration: 16 GPUs, the app's
// footprint rescaled to the GPU count as Figure 18 does, IDYLL with the
// full 11 unused PTE bits.
func scaleoutPair() (m idyll.Machine, app idyll.Workload, schemes []idyll.Scheme, err error) {
	m = idyll.DefaultMachine()
	m.NumGPUs = scaleGPUs
	m.AccessCounterThreshold = scaleThreshold
	app, err = idyll.App(scaleApp)
	if err != nil {
		return m, app, nil, err
	}
	app.PagesPerGPU = max(256, app.PagesPerGPU*4/scaleGPUs)
	opt := idyll.IDYLL()
	opt.UnusedBits = 11
	return m, app, []idyll.Scheme{idyll.Baseline(), opt}, nil
}

func scaleoutRunConfig(seed uint64) idyll.RunConfig {
	return idyll.RunConfig{CUsPerGPU: scaleCUs, AccessesPerCU: scaleAccesses, Seed: seed}
}

// scaleoutServer runs the Baseline and IDYLL cells back to back per call.
func scaleoutServer() (func(uint64, bool) (sutReply, error), error) {
	m, app, schemes, err := scaleoutPair()
	if err != nil {
		return nil, err
	}
	return func(seed uint64, trace bool) (sutReply, error) {
		rep := sutReply{Values: map[string]float64{}}
		t0 := time.Now()
		var cycles [2]float64
		h := sha256.New()
		for i, s := range schemes {
			start := time.Since(t0)
			st, err := idyll.Simulate(m, s, app, scaleoutRunConfig(seed))
			if err != nil {
				return sutReply{}, err
			}
			if trace {
				rep.Spans = append(rep.Spans, childSpan{"idyll.Simulate " + s.Name, start.Nanoseconds(), time.Since(t0).Nanoseconds()})
			}
			raw, err := json.Marshal(st)
			if err != nil {
				return sutReply{}, err
			}
			h.Write(raw)
			rep.Accesses += float64(st.Accesses)
			cycles[i] = float64(st.ExecCycles)
		}
		rep.Digest = hex.EncodeToString(h.Sum(nil))
		rep.Values["speedup"] = frac(cycles[0], cycles[1])
		rep.Values["exec_cycles_sum"] = cycles[0] + cycles[1]
		return rep, nil
	}, nil
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}
