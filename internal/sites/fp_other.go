//go:build !amd64

package sites

// retAddr has no frame-pointer walk on this architecture: 0 means "no fast
// key", so every Here call takes the runtime.Callers path.
func retAddr(depth int) uintptr { return 0 }
