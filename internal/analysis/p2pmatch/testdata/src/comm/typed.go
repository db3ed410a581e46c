package comm

// sendSlice mirrors the real fabric's internal typed send used by the
// collectives; p2pmatch treats sendSlice(c, dst, tag, data) exactly as
// c.Send(dst, tag, data).
func sendSlice[T any](c *Comm, dst, tag int, data []T) {}

// typedPingPong is certified for every P: each typed send is matched by a
// receive — a negative control.
func typedPingPong(c *Comm) {
	if c.Size() < 2 {
		return
	}
	switch c.Rank() {
	case 0:
		sendSlice(c, 1, 5, []float64{1})
		_ = c.Recv(1, 6)
	case 1:
		_ = c.Recv(0, 5)
		sendSlice(c, 0, 6, []float64{2})
	}
}

// typedLost sends with the helper and nobody receives.
func typedLost(c *Comm) {
	if c.Rank() == 1 {
		sendSlice(c, 0, 11, []int{1}) // want `lost message at P=2`
	}
}

// typedFanOut is Scatter's shape: the typed send sits under a run-time
// root guard, so the guard itself is where certification stops — not the
// receive after it, as it would if the helper were invisible.
func typedFanOut(c *Comm, root int) []float64 {
	if c.Rank() == root { // want `cannot certify point-to-point protocol: condition mixes rank-derived and run-time values`
		for dst := 0; dst < c.Size(); dst++ {
			if dst != root {
				sendSlice(c, dst, 4, []float64{1})
			}
		}
		return nil
	}
	return c.Recv(root, 4).([]float64)
}
