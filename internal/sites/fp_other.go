//go:build !amd64

package sites

// retAddrs has no frame-pointer walk on this architecture: 0 means "no fast
// key", so every capture takes the runtime.Callers path.
func retAddrs(depth int) (key, next uintptr) { return 0, 0 }
