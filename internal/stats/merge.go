package stats

// Shard merging. Every GPU and the driver write into their own Sim shard
// (one writer per synchronization domain); the system merges the shards
// into one Sim after the run, always in the same fixed order (GPU 0..N-1,
// then the host). Merging is pure integer and bucket addition plus the
// Sharing maps — no floats — so the merged result is exactly the Sim a
// shared single collector would have produced, and the float reducers
// downstream (AccessDistribution, means) see identical inputs regardless of
// domain count.

// Merge folds o's samples into l.
func (l *Latency) Merge(o Latency) {
	l.Count += o.Count
	l.Sum += o.Sum
	if o.Max > l.Max {
		l.Max = o.Max
	}
}

// Merge folds o's per-page records into sh. The |= and += folds are
// commutative, but iterating sorted keys anyway keeps even intermediate map
// states identical across runs — and keeps the maporder check clean.
func (sh *Sharing) Merge(o *Sharing) {
	if o == nil {
		return
	}
	for _, vpn := range o.sortedVPNs() {
		sh.accessors[vpn] |= o.accessors[vpn]
		sh.accesses[vpn] += o.accesses[vpn]
	}
}

// Merge folds shard o into s: every counter adds, latency accumulators and
// histograms combine, and the sharing trackers union. ExecCycles takes the
// max — it is an end-of-run watermark, not a count. TestMergeCoversAllFields
// walks Sim's fields reflectively so a counter added to Sim but forgotten
// here fails loudly rather than silently dropping a shard's contribution.
func (s *Sim) Merge(o *Sim) {
	if o.ExecCycles > s.ExecCycles {
		s.ExecCycles = o.ExecCycles
	}
	s.Instructions += o.Instructions
	s.Accesses += o.Accesses

	s.L1TLBLookups += o.L1TLBLookups
	s.L1TLBHits += o.L1TLBHits
	s.L2TLBLookups += o.L2TLBLookups
	s.L2TLBHits += o.L2TLBHits
	s.DemandMiss.Merge(o.DemandMiss)
	s.FarFaults += o.FarFaults
	s.MSHRMerges += o.MSHRMerges

	s.WalkerDemand += o.WalkerDemand
	s.WalkerInval += o.WalkerInval
	s.WalkerUpdate += o.WalkerUpdate
	s.InvalNecessary += o.InvalNecessary
	s.InvalUnnecessary += o.InvalUnnecessary
	s.PWCLookups += o.PWCLookups
	s.PWCHits += o.PWCHits
	s.WalkQueueRejects += o.WalkQueueRejects
	s.WalkerLevelVisits += o.WalkerLevelVisits

	s.InvalReceived += o.InvalReceived
	s.Inval.Merge(o.Inval)
	s.InvalBusy += o.InvalBusy

	s.MigrationRequests += o.MigrationRequests
	s.Migrations += o.Migrations
	s.MigrationWait.Merge(o.MigrationWait)
	s.MigrationTotal.Merge(o.MigrationTotal)

	s.LocalAccesses += o.LocalAccesses
	s.RemoteAccesses += o.RemoteAccesses
	s.L1DLookups += o.L1DLookups
	s.L1DHits += o.L1DHits
	s.L2DLookups += o.L2DLookups
	s.L2DHits += o.L2DHits

	s.IRMBInserts += o.IRMBInserts
	s.IRMBMergeHits += o.IRMBMergeHits
	s.IRMBEvictions += o.IRMBEvictions
	s.IRMBLookups += o.IRMBLookups
	s.IRMBLookupHits += o.IRMBLookupHits
	s.IRMBWritebacks += o.IRMBWritebacks
	s.IRMBDrains += o.IRMBDrains
	s.DirectoryTargeted += o.DirectoryTargeted
	s.DirectoryFiltered += o.DirectoryFiltered
	s.VMCacheLookups += o.VMCacheLookups
	s.VMCacheHits += o.VMCacheHits

	s.PRTLookups += o.PRTLookups
	s.PRTHits += o.PRTHits
	s.PRTFalsePositives += o.PRTFalsePositives

	s.Replications += o.Replications
	s.WriteCollapses += o.WriteCollapses

	s.NVLinkBytes += o.NVLinkBytes
	s.PCIeBytes += o.PCIeBytes

	s.EngineEvents += o.EngineEvents
	s.EngineRingScheduled += o.EngineRingScheduled
	s.EngineFarScheduled += o.EngineFarScheduled
	s.EngineMigrated += o.EngineMigrated
	s.EngineCancelled += o.EngineCancelled
	s.EnginePoolHits += o.EnginePoolHits

	s.DemandMissHist.Merge(o.DemandMissHist)
	s.InvalHist.Merge(o.InvalHist)
	s.sharing.Merge(o.sharing)
}
