package stats

import (
	"idyll/internal/checkpoint"
	"idyll/internal/sim"
)

// Checkpoint support. The collector is serialized field-by-field in
// declaration order. TestSaveRestoreCoversAllFields fills every Sim field
// reflectively and round-trips it, so a counter added to Sim but forgotten
// here fails loudly.

// SaveState writes one latency accumulator: its summary fields, then every
// histogram bucket.
func (l *Latency) SaveState(w *checkpoint.Writer) {
	w.U64(l.Count)
	w.I64(int64(l.Sum))
	w.I64(int64(l.Max))
	for _, n := range l.buckets {
		w.U64(n)
	}
}

// RestoreState reads one latency accumulator.
func (l *Latency) RestoreState(r *checkpoint.Reader) {
	l.Count = r.U64()
	l.Sum = sim.VTime(r.I64())
	l.Max = sim.VTime(r.I64())
	for i := range l.buckets {
		l.buckets[i] = r.U64()
	}
}

// SaveState writes the full measurement set to w.
func (s *Sim) SaveState(w *checkpoint.Writer) {
	w.I64(int64(s.ExecCycles))
	w.U64(s.Instructions)
	w.U64(s.Accesses)

	w.U64(s.L1TLBLookups)
	w.U64(s.L1TLBHits)
	w.U64(s.L2TLBLookups)
	w.U64(s.L2TLBHits)
	s.DemandMiss.SaveState(w)
	w.U64(s.FarFaults)
	w.U64(s.MSHRMerges)

	w.U64(s.WalkerDemand)
	w.U64(s.WalkerInval)
	w.U64(s.WalkerUpdate)
	w.U64(s.InvalNecessary)
	w.U64(s.InvalUnnecessary)
	w.U64(s.PWCLookups)
	w.U64(s.PWCHits)
	w.U64(s.WalkQueueRejects)
	w.U64(s.WalkerLevelVisits)

	w.U64(s.InvalReceived)
	s.Inval.SaveState(w)
	w.I64(int64(s.InvalBusy))

	w.U64(s.MigrationRequests)
	w.U64(s.Migrations)
	s.MigrationWait.SaveState(w)
	s.MigrationTotal.SaveState(w)

	w.U64(s.LocalAccesses)
	w.U64(s.RemoteAccesses)
	w.U64(s.L1DLookups)
	w.U64(s.L1DHits)
	w.U64(s.L2DLookups)
	w.U64(s.L2DHits)

	w.U64(s.IRMBInserts)
	w.U64(s.IRMBMergeHits)
	w.U64(s.IRMBEvictions)
	w.U64(s.IRMBLookups)
	w.U64(s.IRMBLookupHits)
	w.U64(s.IRMBWritebacks)
	w.U64(s.IRMBDrains)
	w.U64(s.DirectoryTargeted)
	w.U64(s.DirectoryFiltered)
	w.U64(s.VMCacheLookups)
	w.U64(s.VMCacheHits)

	w.U64(s.PRTLookups)
	w.U64(s.PRTHits)
	w.U64(s.PRTFalsePositives)

	w.U64(s.Replications)
	w.U64(s.WriteCollapses)

	w.U64(s.NVLinkBytes)
	w.U64(s.PCIeBytes)

	w.U64(s.EngineEvents)
	w.U64(s.EngineRingScheduled)
	w.U64(s.EngineFarScheduled)
	w.U64(s.EngineMigrated)
	w.U64(s.EngineCancelled)
	w.U64(s.EnginePoolHits)
}

// RestoreState reads the state written by SaveState into s.
func (s *Sim) RestoreState(r *checkpoint.Reader) {
	s.ExecCycles = sim.VTime(r.I64())
	s.Instructions = r.U64()
	s.Accesses = r.U64()

	s.L1TLBLookups = r.U64()
	s.L1TLBHits = r.U64()
	s.L2TLBLookups = r.U64()
	s.L2TLBHits = r.U64()
	s.DemandMiss.RestoreState(r)
	s.FarFaults = r.U64()
	s.MSHRMerges = r.U64()

	s.WalkerDemand = r.U64()
	s.WalkerInval = r.U64()
	s.WalkerUpdate = r.U64()
	s.InvalNecessary = r.U64()
	s.InvalUnnecessary = r.U64()
	s.PWCLookups = r.U64()
	s.PWCHits = r.U64()
	s.WalkQueueRejects = r.U64()
	s.WalkerLevelVisits = r.U64()

	s.InvalReceived = r.U64()
	s.Inval.RestoreState(r)
	s.InvalBusy = sim.VTime(r.I64())

	s.MigrationRequests = r.U64()
	s.Migrations = r.U64()
	s.MigrationWait.RestoreState(r)
	s.MigrationTotal.RestoreState(r)

	s.LocalAccesses = r.U64()
	s.RemoteAccesses = r.U64()
	s.L1DLookups = r.U64()
	s.L1DHits = r.U64()
	s.L2DLookups = r.U64()
	s.L2DHits = r.U64()

	s.IRMBInserts = r.U64()
	s.IRMBMergeHits = r.U64()
	s.IRMBEvictions = r.U64()
	s.IRMBLookups = r.U64()
	s.IRMBLookupHits = r.U64()
	s.IRMBWritebacks = r.U64()
	s.IRMBDrains = r.U64()
	s.DirectoryTargeted = r.U64()
	s.DirectoryFiltered = r.U64()
	s.VMCacheLookups = r.U64()
	s.VMCacheHits = r.U64()

	s.PRTLookups = r.U64()
	s.PRTHits = r.U64()
	s.PRTFalsePositives = r.U64()

	s.Replications = r.U64()
	s.WriteCollapses = r.U64()

	s.NVLinkBytes = r.U64()
	s.PCIeBytes = r.U64()

	s.EngineEvents = r.U64()
	s.EngineRingScheduled = r.U64()
	s.EngineFarScheduled = r.U64()
	s.EngineMigrated = r.U64()
	s.EngineCancelled = r.U64()
	s.EnginePoolHits = r.U64()
}
