//go:build !purego

#include "textflag.h"

// func Prefetch(p unsafe.Pointer)
TEXT ·Prefetch(SB), NOSPLIT, $0-8
	MOVQ p+0(FP), AX
	PREFETCHT0 (AX)
	RET

// func PrefetchPair(p unsafe.Pointer)
TEXT ·PrefetchPair(SB), NOSPLIT, $0-8
	MOVQ p+0(FP), AX
	PREFETCHT0 (AX)
	PREFETCHT0 64(AX)
	RET
