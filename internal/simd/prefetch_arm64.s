//go:build !purego

#include "textflag.h"

// func Prefetch(p unsafe.Pointer)
TEXT ·Prefetch(SB), NOSPLIT, $0-8
	MOVD p+0(FP), R0
	PRFM (R0), PLDL1KEEP
	RET

// func PrefetchPair(p unsafe.Pointer)
TEXT ·PrefetchPair(SB), NOSPLIT, $0-8
	MOVD p+0(FP), R0
	PRFM (R0), PLDL1KEEP
	PRFM 64(R0), PLDL1KEEP
	RET
