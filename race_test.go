//go:build race

package bench

func init() { openCodedDefers = false }
