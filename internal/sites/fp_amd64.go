package sites

// retAddr returns the return address of the frame depth frame-pointer links
// above its caller's frame: retAddr(0) is the caller's own return address.
// It returns 0 when the chain ends first. Implemented in fp_amd64.s.
func retAddr(depth int) uintptr
