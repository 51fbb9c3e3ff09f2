package comm

// ForceWireLoops makes the codecs take their value loops, and the packed
// sends and views their scratch paths, as on a big-endian host, until the
// returned restore is called.
func ForceWireLoops() (restore func()) {
	host := nativeWire
	nativeWire = false
	return func() { nativeWire = host }
}
