package comm

// sendSlice mirrors the real fabric's internal typed send used by the
// collectives; tagcheck treats it as Send(dst, tag, data).
func sendSlice[T any](c *Comm, dst, tag int, data []T) {}

// collTag lives in comm's reserved negative range, which the owner may use.
const collTag = -1000

func collective(c *Comm, buf []float64) {
	sendSlice(c, 1, collTag, buf) // owner package: fine
	sendSlice(c, 1, 7, buf)       // want `raw integer message tag in Send call`
}
