//go:build race

package sites

func init() { openCodedDefers = false }
