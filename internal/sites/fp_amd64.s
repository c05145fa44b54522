#include "textflag.h"

// func retAddrs(depth int) (key, next uintptr)
//
// Frameless, so BP still holds the caller's frame pointer: [BP] is the
// saved frame pointer of the next frame up and [BP+8] the caller's return
// address. Follow depth saved-BP links, then load that frame's return
// address (key) and the return address one link further up (next). A zero
// link ends the chain (the goroutine's first frame): the addresses past it
// are 0.
TEXT ·retAddrs(SB), NOSPLIT|NOFRAME, $0-24
	MOVQ	depth+0(FP), CX
	MOVQ	BP, AX
	XORQ	DX, DX
	XORQ	BX, BX
loop:
	TESTQ	AX, AX
	JZ	done
	TESTQ	CX, CX
	JLE	found
	MOVQ	0(AX), AX
	DECQ	CX
	JMP	loop
found:
	MOVQ	8(AX), DX
	MOVQ	0(AX), AX
	TESTQ	AX, AX
	JZ	done
	MOVQ	8(AX), BX
done:
	MOVQ	DX, key+8(FP)
	MOVQ	BX, next+16(FP)
	RET
