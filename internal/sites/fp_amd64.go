package sites

// retAddrs returns the return address of the frame depth frame-pointer
// links above its caller's frame (retAddrs(0) gives the caller's own return
// address) and the return address one link further up. Either is 0 when the
// chain ends first. Implemented in fp_amd64.s.
func retAddrs(depth int) (key, next uintptr)
