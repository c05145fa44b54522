#include "textflag.h"

// func retAddr(depth int) uintptr
//
// Frameless, so BP still holds the caller's frame pointer: [BP] is the
// saved frame pointer of the next frame up and [BP+8] the caller's return
// address. Follow depth saved-BP links, then load that frame's return
// address. A zero link ends the chain (the goroutine's first frame) and
// returns 0.
TEXT ·retAddr(SB), NOSPLIT|NOFRAME, $0-16
	MOVQ	depth+0(FP), CX
	MOVQ	BP, AX
loop:
	TESTQ	AX, AX
	JZ	done
	TESTQ	CX, CX
	JLE	found
	MOVQ	0(AX), AX
	DECQ	CX
	JMP	loop
found:
	MOVQ	8(AX), AX
done:
	MOVQ	AX, ret+8(FP)
	RET
