package trace

// Spilled returns the number of t's events that did not pack into a record.
func Spilled(t *Trace) int {
	n := 0
	for _, c := range t.spill {
		n += len(c)
	}
	return n
}
