package driver

import (
	"sort"

	"idyll/internal/checkpoint"
	"idyll/internal/core"
	"idyll/internal/memdef"
)

// Checkpoint support. A driver at a quiescent point has no fault batched, no
// migration open, and no mapping reply on the wire — SaveState asserts all of
// it — so what travels is the host page table (whose Aux bits carry the
// in-PTE directory), the frame allocators, the replica sets, the host-walker
// pool, and the VM-Table directory's state when that kind is active. The
// directory kind is fixed by the scheme the restoring system was built from,
// which the content-addressed checkpoint key guarantees matches.

// SaveState writes the driver's state to w. Panics if the driver is not
// quiescent — checkpoints are only taken after a full drain.
func (d *Driver) SaveState(w *checkpoint.Writer) {
	if len(d.faultQueue) != 0 || d.batchScheduled || d.migrating.Len() != 0 ||
		d.repliesInFlight.Len() != 0 || d.queuedMigration.Len() != 0 {
		panic("driver: SaveState with in-flight work")
	}
	d.hostPT.SaveState(w)
	d.hostWalkers.SaveState(w)

	devs := make([]memdef.DeviceID, 0, len(d.nextFrame))
	for dev := range d.nextFrame {
		devs = append(devs, dev)
	}
	sort.Slice(devs, func(i, j int) bool { return devs[i] < devs[j] })
	w.U32(uint32(len(devs)))
	for _, dev := range devs {
		w.Int(int(dev))
		w.U64(d.nextFrame[dev])
	}

	vpns := make([]memdef.VPN, 0, len(d.replicas))
	for vpn := range d.replicas {
		vpns = append(vpns, vpn)
	}
	sort.Slice(vpns, func(i, j int) bool { return vpns[i] < vpns[j] })
	w.U32(uint32(len(vpns)))
	for _, vpn := range vpns {
		w.U64(uint64(vpn))
		set := d.replicas[vpn]
		gpus := make([]int, 0, len(set))
		for g := range set {
			gpus = append(gpus, g)
		}
		sort.Ints(gpus)
		w.U32(uint32(len(gpus)))
		for _, g := range gpus {
			w.Int(g)
			w.U64(uint64(set[g]))
		}
	}

	// The broadcast directory is stateless and the in-PTE one lives in the
	// host page table's Aux bits.
	if dir, ok := d.dir.(*core.VMDirectory); ok {
		dir.SaveState(w)
	}
}

// RestoreState reads the state written by SaveState into d, which must be
// freshly constructed from the same machine and scheme.
func (d *Driver) RestoreState(r *checkpoint.Reader) {
	d.hostPT.RestoreState(r)
	d.hostWalkers.RestoreState(r)

	clear(d.nextFrame)
	for i, n := 0, r.Count(16); i < n && r.Err() == nil; i++ {
		dev := memdef.DeviceID(r.Int())
		d.nextFrame[dev] = r.U64()
	}

	clear(d.replicas)
	for i, n := 0, r.Count(12); i < n && r.Err() == nil; i++ {
		vpn := memdef.VPN(r.U64())
		set := make(map[int]memdef.PFN)
		for j, m := 0, r.Count(16); j < m && r.Err() == nil; j++ {
			g := r.Int()
			set[g] = memdef.PFN(r.U64())
		}
		d.replicas[vpn] = set
	}

	if dir, ok := d.dir.(*core.VMDirectory); ok {
		dir.RestoreState(r)
	}
}
