// Checkpointing: a System that has fully drained its event cluster is at a
// quiescent point — no event closure is pending anywhere — so its complete
// architectural state is plain data and can be serialized. Checkpoints are
// taken between a warmup phase and the remainder of the trace; forking N
// sweep cells from one warmup checkpoint replays byte-identically to running
// each cell straight through, because both paths execute the same phased run
// (warmup, drain barrier, remainder) on identical state.
//
// Events themselves (Go closures) are never serialized; that is why the
// two-phase run exists. The drain barrier between phases is part of the
// simulated schedule, so a warmup depth W is a *semantic* parameter: results
// at W>0 differ from W=0, and W therefore belongs to the experiment's
// canonical identity (see experiment.Options.WarmupAccessesPerCU).

package system

import (
	"context"
	"fmt"

	"idyll/internal/checkpoint"
	"idyll/internal/stats"
	"idyll/internal/workload"
)

// RunWarmupCtx executes the first warmupPerCU accesses of every CU and
// drains the cluster, leaving the system at a checkpointable quiescent
// point. The remainder of the trace runs via RunRemainderCtx.
func (s *System) RunWarmupCtx(ctx context.Context, trace *workload.Trace, warmupPerCU int) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if warmupPerCU <= 0 {
		return fmt.Errorf("system: warmup of %d accesses per CU", warmupPerCU)
	}
	if err := s.prepare(trace); err != nil {
		return err
	}
	for i, g := range s.GPUs {
		g.Run(tracePrefix(trace.Accesses[i], warmupPerCU))
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := s.Cluster.RunCtx(ctx); err != nil {
		return err
	}
	for i, g := range s.GPUs {
		if !g.Finished() {
			return fmt.Errorf("system: deadlock — GPU %d never finished its warmup", i)
		}
	}
	// The drain leaves each domain's clock wherever its last event fired;
	// realign them so the remainder starts from one shared barrier cycle.
	s.Cluster.AlignClocks()
	return nil
}

// RunRemainderCtx executes the trace's post-warmup suffix to completion and
// returns the collected stats. The receiver must either have completed
// RunWarmupCtx with the same (trace, warmupPerCU) or have Resumed a
// checkpoint taken at that point — the two are byte-identical.
func (s *System) RunRemainderCtx(ctx context.Context, trace *workload.Trace, warmupPerCU int) (*stats.Sim, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if s.released {
		return nil, errReleased
	}
	if trace.NumGPUs != s.Machine.NumGPUs {
		return nil, fmt.Errorf("system: trace has %d GPUs, machine has %d",
			trace.NumGPUs, s.Machine.NumGPUs)
	}
	if s.CheckTranslations {
		s.installChecker()
	}
	// Workload shape is derived state, re-applied rather than checkpointed.
	s.setShape(trace)
	for i, g := range s.GPUs {
		g.Run(traceSuffix(trace.Accesses[i], warmupPerCU))
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := s.Cluster.RunCtx(ctx); err != nil {
		return nil, err
	}
	return s.finalize()
}

// tracePrefix clips every CU's stream to its first n accesses.
func tracePrefix(cus [][]workload.Access, n int) [][]workload.Access {
	out := make([][]workload.Access, len(cus))
	for i, cu := range cus {
		k := n
		if k > len(cu) {
			k = len(cu)
		}
		out[i] = cu[:k]
	}
	return out
}

// traceSuffix clips every CU's stream to what tracePrefix left out.
func traceSuffix(cus [][]workload.Access, n int) [][]workload.Access {
	out := make([][]workload.Access, len(cus))
	for i, cu := range cus {
		k := n
		if k > len(cu) {
			k = len(cu)
		}
		out[i] = cu[k:]
	}
	return out
}

// Checkpoint serializes the system's complete state. The cluster must be
// fully drained (every event fired); a system with the translation checker
// installed cannot be checkpointed, because the probe's closures reference
// this instance and would not survive a restore into another.
func (s *System) Checkpoint() ([]byte, error) {
	if s.released {
		return nil, errReleased
	}
	if n := s.Cluster.Pending(); n != 0 {
		return nil, fmt.Errorf("system: checkpoint with %d pending events", n)
	}
	if s.CheckTranslations {
		return nil, fmt.Errorf("system: cannot checkpoint with the translation checker enabled")
	}
	w := checkpoint.NewWriter()
	// Configuration fingerprint: enough to reject gross mismatches early.
	// Full configuration identity is the content-addressed store key's job.
	w.String(s.Scheme.Name)
	w.Int(s.Machine.NumGPUs)
	w.Int(s.Machine.CUsPerGPU)
	s.Cluster.SaveState(w)
	s.Net.SaveState(w)
	s.Driver.SaveState(w)
	for _, g := range s.GPUs {
		g.SaveState(w)
	}
	s.Stats.SaveState(w)
	w.U64(s.staleWindow)
	return w.Finish(), nil
}

// Resume restores a Checkpoint into s, which must be freshly constructed
// from the same machine and scheme and never run.
func (s *System) Resume(data []byte) error {
	if s.released {
		return errReleased
	}
	r, err := checkpoint.NewReader(data)
	if err != nil {
		return err
	}
	name := r.String()
	numGPUs := r.Int()
	cus := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if name != s.Scheme.Name || numGPUs != s.Machine.NumGPUs || cus != s.Machine.CUsPerGPU {
		return fmt.Errorf("system: checkpoint of scheme %q (%d GPUs x %d CUs) cannot resume into %q (%d x %d)",
			name, numGPUs, cus, s.Scheme.Name, s.Machine.NumGPUs, s.Machine.CUsPerGPU)
	}
	s.Cluster.RestoreState(r)
	s.Net.RestoreState(r)
	s.Driver.RestoreState(r)
	for _, g := range s.GPUs {
		g.RestoreState(r)
	}
	s.Stats.RestoreState(r)
	s.staleWindow = r.U64()
	// The restored state already holds a placed, partly run trace.
	s.prepared = true
	return r.Finish()
}
