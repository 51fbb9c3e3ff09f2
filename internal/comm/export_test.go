package comm

// TagBarrier is the tag of Barrier's messages.
const TagBarrier = tagBarrier

// ForceWireLoops makes the codecs take their value loops, and the packed
// sends and views their scratch paths, as on a big-endian host, until the
// returned restore is called.
func ForceWireLoops() (restore func()) {
	host := nativeWire
	nativeWire = false
	return func() { nativeWire = host }
}

// AllGatherI32 is AllGatherI64 for []int32 lists.
func (p *Proc) AllGatherI32(xs []int32) [][]int32 {
	lists := make([][]int32, p.size)
	allGather(p, nil, lists, xs)
	return lists
}
