//go:build amd64 && !purego

#include "textflag.h"

// The AVX2 feature-fusion kernels (simd.go says what they may and may not
// do). Lengths are element counts. Every kernel ends its 256-bit region with
// VZEROUPPER and reads but never writes MXCSR; none uses a fused multiply-add.
// Go operand order: the last operand is the destination and the one before it
// the first source, so `VADDPS Y6, Y4, Y4` is Y4 = Y4 + Y6 with the
// accumulator first. The three streaming kernels take any n >= 0: sixteen
// elements per iteration, then eight, then a scalar VEX tail in the same order.

// func cpuHasAVX2() bool
//
// CPUID.1:ECX says the OS uses XSAVE and the CPU has AVX, XCR0 says the OS
// saves the XMM and YMM halves, CPUID.7.0:EBX bit 5 is AVX2.
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE | AVX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX // XCR0: SSE and AVX state enabled
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX
	JCC  no
	MOVB $1, ret+0(FP)
no:
	RET

// func axpyVec(dst, x *float32, n int, a float32)
//
// dst[j] += a*x[j].
TEXT ·axpyVec(SB), NOSPLIT, $0-28
	MOVQ         dst+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSS a+24(FP), Y0
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-16, DX
	JMP          check16

loop16:
	VMULPS  (SI)(AX*4), Y0, Y6
	VMULPS  32(SI)(AX*4), Y0, Y7
	VMOVUPS (DI)(AX*4), Y4
	VMOVUPS 32(DI)(AX*4), Y5
	VADDPS  Y6, Y4, Y4
	VADDPS  Y7, Y5, Y5
	VMOVUPS Y4, (DI)(AX*4)
	VMOVUPS Y5, 32(DI)(AX*4)
	ADDQ    $16, AX

check16:
	CMPQ AX, DX
	JLT  loop16
	MOVQ CX, DX
	ANDQ $-8, DX
	CMPQ AX, DX
	JGE  check1
	VMULPS  (SI)(AX*4), Y0, Y6
	VMOVUPS (DI)(AX*4), Y4
	VADDPS  Y6, Y4, Y4
	VMOVUPS Y4, (DI)(AX*4)
	ADDQ    $8, AX
	JMP     check1

loop1:
	VMULSS (SI)(AX*4), X0, X6
	VMOVSS (DI)(AX*4), X4
	VADDSS X6, X4, X4
	VMOVSS X4, (DI)(AX*4)
	INCQ   AX

check1:
	CMPQ AX, CX
	JLT  loop1
	VZEROUPPER
	RET

// func addVec(dst, x *float32, n int)
//
// dst[j] += x[j].
TEXT ·addVec(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-16, DX
	JMP  check16

loop16:
	VMOVUPS (DI)(AX*4), Y4
	VMOVUPS 32(DI)(AX*4), Y5
	VADDPS  (SI)(AX*4), Y4, Y4
	VADDPS  32(SI)(AX*4), Y5, Y5
	VMOVUPS Y4, (DI)(AX*4)
	VMOVUPS Y5, 32(DI)(AX*4)
	ADDQ    $16, AX

check16:
	CMPQ AX, DX
	JLT  loop16
	MOVQ CX, DX
	ANDQ $-8, DX
	CMPQ AX, DX
	JGE  check1
	VMOVUPS (DI)(AX*4), Y4
	VADDPS  (SI)(AX*4), Y4, Y4
	VMOVUPS Y4, (DI)(AX*4)
	ADDQ    $8, AX
	JMP     check1

loop1:
	VMOVSS (DI)(AX*4), X4
	VADDSS (SI)(AX*4), X4, X4
	VMOVSS X4, (DI)(AX*4)
	INCQ   AX

check1:
	CMPQ AX, CX
	JLT  loop1
	VZEROUPPER
	RET

// func scaleVec(dst *float32, n int, a float32)
//
// dst[j] *= a.
TEXT ·scaleVec(SB), NOSPLIT, $0-20
	MOVQ         dst+0(FP), DI
	MOVQ         n+8(FP), CX
	VBROADCASTSS a+16(FP), Y0
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-16, DX
	JMP          check16

loop16:
	VMULPS  (DI)(AX*4), Y0, Y4
	VMULPS  32(DI)(AX*4), Y0, Y5
	VMOVUPS Y4, (DI)(AX*4)
	VMOVUPS Y5, 32(DI)(AX*4)
	ADDQ    $16, AX

check16:
	CMPQ AX, DX
	JLT  loop16
	MOVQ CX, DX
	ANDQ $-8, DX
	CMPQ AX, DX
	JGE  check1
	VMULPS  (DI)(AX*4), Y0, Y4
	VMOVUPS Y4, (DI)(AX*4)
	ADDQ    $8, AX
	JMP     check1

loop1:
	VMULSS (DI)(AX*4), X0, X4
	VMOVSS X4, (DI)(AX*4)
	INCQ   AX

check1:
	CMPQ AX, CX
	JLT  loop1
	VZEROUPPER
	RET

// A row of sums that never leaves its registers: for j in [0, n)
//
//	dst[j] = init + t[0]*o[0][j] + t[1*ts]*o[1][j] + ... + t[(k-1)*ts]*o[k-1][j]
//
// added left to right, one rounded multiply and one rounded add per term,
// rows of o being os floats apart. init is +0, or dst[j] when acc is set (the
// sum continues where an earlier call stopped). Afterwards bias[j] is added
// when bias is not nil (accumulator first), then relu clamps with VMAXPS 0,
// acc — which returns its second operand unless the first is greater, so -0
// and NaN pass through as they do through `if v < 0`. Columns go in blocks of
// 32, then 16, then one masked block of the 1..15 left over: VMASKMOVPS reads
// masked-off lanes as +0 without touching their memory and does not write
// them. Requires k >= 1.

// tailmask<> + 4*(8-r) is a mask with the first r of eight lanes set.
DATA tailmask<>+0(SB)/8, $0xffffffffffffffff
DATA tailmask<>+8(SB)/8, $0xffffffffffffffff
DATA tailmask<>+16(SB)/8, $0xffffffffffffffff
DATA tailmask<>+24(SB)/8, $0xffffffffffffffff
DATA tailmask<>+32(SB)/8, $0
DATA tailmask<>+40(SB)/8, $0
DATA tailmask<>+48(SB)/8, $0
DATA tailmask<>+56(SB)/8, $0
GLOBL tailmask<>(SB), RODATA|NOPTR, $64

#define MM_TERM(off, acc) \
	VMULPS off(R9), Y8, Y9; \
	VADDPS Y9, acc, acc

// func matmulRowVec(dst, t, o, bias *float32, k, n, ts, os int, acc, relu bool)
TEXT ·matmulRowVec(SB), NOSPLIT, $0-66
	MOVQ   dst+0(FP), DI
	MOVQ   t+8(FP), SI
	MOVQ   o+16(FP), DX
	MOVQ   bias+24(FP), BX
	MOVQ   k+32(FP), CX
	MOVQ   n+40(FP), R11
	MOVQ   ts+48(FP), R12
	MOVQ   os+56(FP), R13
	SHLQ   $2, R12 // strides in bytes
	SHLQ   $2, R13
	VXORPS Y15, Y15, Y15
	XORQ   AX, AX // first column of the block

next32:
	MOVQ   R11, R10
	SUBQ   AX, R10 // columns left
	CMPQ   R10, $32
	JLT    next16
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	CMPB   acc+64(FP), $0
	JEQ    start32
	VMOVUPS (DI)(AX*4), Y0
	VMOVUPS 32(DI)(AX*4), Y1
	VMOVUPS 64(DI)(AX*4), Y2
	VMOVUPS 96(DI)(AX*4), Y3

start32:
	MOVQ SI, R8
	LEAQ (DX)(AX*4), R9
	MOVQ CX, R10

term32:
	VBROADCASTSS (R8), Y8
	MM_TERM(0, Y0)
	MM_TERM(32, Y1)
	MM_TERM(64, Y2)
	MM_TERM(96, Y3)
	ADDQ  R12, R8
	ADDQ  R13, R9
	DECQ  R10
	JNZ   term32
	TESTQ BX, BX
	JEQ   relu32
	VADDPS (BX)(AX*4), Y0, Y0
	VADDPS 32(BX)(AX*4), Y1, Y1
	VADDPS 64(BX)(AX*4), Y2, Y2
	VADDPS 96(BX)(AX*4), Y3, Y3

relu32:
	CMPB   relu+65(FP), $0
	JEQ    store32
	VMAXPS Y0, Y15, Y0
	VMAXPS Y1, Y15, Y1
	VMAXPS Y2, Y15, Y2
	VMAXPS Y3, Y15, Y3

store32:
	VMOVUPS Y0, (DI)(AX*4)
	VMOVUPS Y1, 32(DI)(AX*4)
	VMOVUPS Y2, 64(DI)(AX*4)
	VMOVUPS Y3, 96(DI)(AX*4)
	ADDQ    $32, AX
	JMP     next32

next16:
	CMPQ   R10, $16
	JLT    tail
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	CMPB   acc+64(FP), $0
	JEQ    start16
	VMOVUPS (DI)(AX*4), Y0
	VMOVUPS 32(DI)(AX*4), Y1

start16:
	MOVQ SI, R8
	LEAQ (DX)(AX*4), R9
	MOVQ CX, R10

term16:
	VBROADCASTSS (R8), Y8
	MM_TERM(0, Y0)
	MM_TERM(32, Y1)
	ADDQ  R12, R8
	ADDQ  R13, R9
	DECQ  R10
	JNZ   term16
	TESTQ BX, BX
	JEQ   relu16
	VADDPS (BX)(AX*4), Y0, Y0
	VADDPS 32(BX)(AX*4), Y1, Y1

relu16:
	CMPB   relu+65(FP), $0
	JEQ    store16
	VMAXPS Y0, Y15, Y0
	VMAXPS Y1, Y15, Y1

store16:
	VMOVUPS Y0, (DI)(AX*4)
	VMOVUPS Y1, 32(DI)(AX*4)
	ADDQ    $16, AX
	MOVQ    R11, R10
	SUBQ    AX, R10

tail:
	// R10 = 0..15 columns left: Y10 masks the first min(R10, 8) of them,
	// Y11 the rest.
	TESTQ   R10, R10
	JEQ     done
	LEAQ    tailmask<>+32(SB), R8
	MOVQ    R10, R9
	SUBQ    $8, R9 // lanes of the second vector, negative if none
	JGE     2(PC)
	XORQ    R9, R9
	SUBQ    R9, R10 // lanes of the first
	SHLQ    $2, R10
	SHLQ    $2, R9
	NEGQ    R10
	NEGQ    R9
	VMOVDQU (R8)(R10*1), Y10
	VMOVDQU (R8)(R9*1), Y11
	VXORPS  Y0, Y0, Y0
	VXORPS  Y1, Y1, Y1
	CMPB    acc+64(FP), $0
	JEQ     starttail
	VMASKMOVPS (DI)(AX*4), Y10, Y0
	VMASKMOVPS 32(DI)(AX*4), Y11, Y1

starttail:
	MOVQ SI, R8
	LEAQ (DX)(AX*4), R9
	MOVQ CX, R10

termtail:
	VBROADCASTSS (R8), Y8
	VMASKMOVPS   (R9), Y10, Y9
	VMULPS       Y9, Y8, Y9
	VADDPS       Y9, Y0, Y0
	VMASKMOVPS   32(R9), Y11, Y9
	VMULPS       Y9, Y8, Y9
	VADDPS       Y9, Y1, Y1
	ADDQ         R12, R8
	ADDQ         R13, R9
	DECQ         R10
	JNZ          termtail
	TESTQ        BX, BX
	JEQ          relutail
	VMASKMOVPS   (BX)(AX*4), Y10, Y9
	VADDPS       Y9, Y0, Y0
	VMASKMOVPS   32(BX)(AX*4), Y11, Y9
	VADDPS       Y9, Y1, Y1

relutail:
	CMPB   relu+65(FP), $0
	JEQ    storetail
	VMAXPS Y0, Y15, Y0
	VMAXPS Y1, Y15, Y1

storetail:
	VMASKMOVPS Y0, Y10, (DI)(AX*4)
	VMASKMOVPS Y1, Y11, 32(DI)(AX*4)

done:
	VZEROUPPER
	RET

// One output row of MatMulT against the transposed right operand ot [k, n]:
// dst[j] = ((s0 + s1) + s2) + s3 with s_r = the sum, from +0 in ascending p,
// of x[p]*ot[p][j] over p = r (mod 4), and the k%4 last terms folded into s0
// after its own — DotUnrolled's order with the output columns as the lanes, so
// no horizontal sum is needed. Sixteen columns per block: Y0..Y3 are s0..s3 of
// the first eight, Y4..Y7 of the second; a last partial block is moved back to
// end at n, as in matmulRowVec. Requires n >= 16.

#define MT_TERM(xoff, lo, hi) \
	VBROADCASTSS xoff(R8), Y8; \
	VMULPS       (R9), Y8, Y9; \
	VADDPS       Y9, lo, lo;   \
	VMULPS       32(R9), Y8, Y9; \
	VADDPS       Y9, hi, hi;   \
	ADDQ         R13, R9

// func matmulTRowVec(dst, x, ot *float32, k, n int)
TEXT ·matmulTRowVec(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ ot+16(FP), DX
	MOVQ k+24(FP), CX
	MOVQ n+32(FP), R11
	LEAQ (R11*4), R13 // bytes between rows of ot
	XORQ AX, AX // first column of the block

block:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ   SI, R8
	LEAQ   (DX)(AX*4), R9
	MOVQ   CX, R10
	SHRQ   $2, R10
	JEQ    tail

term4:
	MT_TERM(0, Y0, Y4)
	MT_TERM(4, Y1, Y5)
	MT_TERM(8, Y2, Y6)
	MT_TERM(12, Y3, Y7)
	ADDQ $16, R8
	DECQ R10
	JNZ  term4

tail:
	MOVQ CX, R10
	ANDQ $3, R10
	JEQ  combine

term1:
	MT_TERM(0, Y0, Y4)
	ADDQ $4, R8
	DECQ R10
	JNZ  term1

combine:
	VADDPS  Y1, Y0, Y0
	VADDPS  Y5, Y4, Y4
	VADDPS  Y2, Y0, Y0
	VADDPS  Y6, Y4, Y4
	VADDPS  Y3, Y0, Y0
	VADDPS  Y7, Y4, Y4
	VMOVUPS Y0, (DI)(AX*4)
	VMOVUPS Y4, 32(DI)(AX*4)
	ADDQ    $16, AX
	MOVQ    R11, R10
	SUBQ    AX, R10 // columns left
	JLE     done
	CMPQ    R10, $16
	JGE     block
	MOVQ    R11, AX // fewer than 16 left: redo the last 16
	SUBQ    $16, AX
	JMP     block

done:
	VZEROUPPER
	RET

// The gather kernels: one call per destination. For j in [0, n)
//
//	dst[j] = row(idx[0])[j] + row(idx[1])[j] + ... + row(idx[m-1])[j]
//
// added left to right, row(r) being the n floats at src + r*stride. The sum
// is copy-first (the first term is the row itself) or, with zero set, starts
// at +0 — the same bits except that a lone -0 comes out +0. sumRowsScaledVec
// weighs term p by scale[idx[p]]: a term is one rounded product, added with
// one rounded add (copy-first: the first product is stored as it is). A block
// of dst's columns stays in registers across the whole index list and is
// stored once: 64 columns at a time, then 32, 16 and 8, then one masked block
// of the 1..7 left over, as matmulRowVec does. Requires m >= 1; the Go
// wrappers have checked every index.
//
// Registers: DI dst, SI src, DX idx, CX m, R11 n, R13 stride in bytes, BX
// scale, R14 zero, AX the block's first column, R10 columns left, R12
// &src[AX], R8 the next edge, R9 its row, Y8 a term, Y14 its weight, Y15 the
// tail mask.

// GATHER_ROW: R9 = the row of edge R8 at the block's columns; R8++.
#define GATHER_ROW \
	MOVLQSX (DX)(R8*4), R9; \
	IMULQ   R13, R9;        \
	ADDQ    R12, R9;        \
	INCQ    R8

// SCALED_ROW: GATHER_ROW, and Y14 = its weight.
#define SCALED_ROW \
	MOVLQSX      (DX)(R8*4), R9;  \
	VBROADCASTSS (BX)(R9*4), Y14; \
	IMULQ        R13, R9;         \
	ADDQ         R12, R9;         \
	INCQ         R8

// The accumulators of a block, and what a step does to each.
#define COLS64(OP) OP(0, Y0); OP(32, Y1); OP(64, Y2); OP(96, Y3); OP(128, Y4); OP(160, Y5); OP(192, Y6); OP(224, Y7)
#define COLS32(OP) OP(0, Y0); OP(32, Y1); OP(64, Y2); OP(96, Y3)
#define COLS16(OP) OP(0, Y0); OP(32, Y1)
#define COLS8(OP) OP(0, Y0)

#define G_ZERO(off, acc) VXORPS acc, acc, acc
#define G_LOAD(off, acc) VMOVUPS off(R9), acc
#define G_ADD(off, acc) VADDPS off(R9), acc, acc
#define G_MUL(off, acc) VMULPS off(R9), Y14, acc
#define G_MULADD(off, acc) VMULPS off(R9), Y14, Y8; VADDPS Y8, acc, acc
#define G_STORE(off, acc) VMOVUPS acc, off(DI)(AX*4)
#define G_LOADM(off, acc) VMASKMOVPS off(R9), Y15, acc
#define G_ADDM(off, acc) VMASKMOVPS off(R9), Y15, Y8; VADDPS Y8, acc, acc
#define G_MULM(off, acc) VMASKMOVPS off(R9), Y15, Y8; VMULPS Y8, Y14, acc
#define G_MULADDM(off, acc) VMASKMOVPS off(R9), Y15, Y8; VMULPS Y8, Y14, Y8; VADDPS Y8, acc, acc
#define G_STOREM(off, acc) VMASKMOVPS acc, Y15, off(DI)(AX*4)

// BLOCK folds columns [AX, AX+width) of all m rows into the registers COLS
// names and stores them: ROW steps to the next row, FIRST takes the first one
// (copy-first) or, when R14 is set, the registers start at +0 and TERM takes
// it like every later one. zl, ll and cl are its labels.
#define BLOCK(COLS, ROW, FIRST, TERM, STORE, zl, ll, cl) \
	LEAQ  (SI)(AX*4), R12; \
	XORQ  R8, R8;          \
	TESTQ R14, R14;        \
	JNE   zl;              \
	ROW;                   \
	COLS(FIRST);           \
	JMP   cl;              \
zl:                        \
	COLS(G_ZERO);          \
ll:                        \
	ROW;                   \
	COLS(TERM);            \
cl:                        \
	CMPQ  R8, CX;          \
	JLT   ll;              \
	COLS(STORE)

// TAIL_MASK: Y15 = the first R10 (1..7) lanes.
#define TAIL_MASK \
	LEAQ    tailmask<>+32(SB), R9; \
	SHLQ    $2, R10;               \
	NEGQ    R10;                   \
	VMOVDQU (R9)(R10*1), Y15

// func sumRowsVec(dst, src *float32, idx *int32, m, n, stride int, zero bool)
TEXT ·sumRowsVec(SB), NOSPLIT, $0-49
	MOVQ    dst+0(FP), DI
	MOVQ    src+8(FP), SI
	MOVQ    idx+16(FP), DX
	MOVQ    m+24(FP), CX
	MOVQ    n+32(FP), R11
	MOVQ    stride+40(FP), R13
	MOVBQZX zero+48(FP), R14
	SHLQ    $2, R13
	XORQ    AX, AX

next64:
	MOVQ R11, R10
	SUBQ AX, R10
	CMPQ R10, $64
	JLT  next32
	BLOCK(COLS64, GATHER_ROW, G_LOAD, G_ADD, G_STORE, z64, l64, c64)
	ADDQ $64, AX
	JMP  next64

next32:
	CMPQ R10, $32
	JLT  next16
	BLOCK(COLS32, GATHER_ROW, G_LOAD, G_ADD, G_STORE, z32, l32, c32)
	ADDQ $32, AX
	SUBQ $32, R10

next16:
	CMPQ R10, $16
	JLT  next8
	BLOCK(COLS16, GATHER_ROW, G_LOAD, G_ADD, G_STORE, z16, l16, c16)
	ADDQ $16, AX
	SUBQ $16, R10

next8:
	CMPQ R10, $8
	JLT  tail
	BLOCK(COLS8, GATHER_ROW, G_LOAD, G_ADD, G_STORE, z8, l8, c8)
	ADDQ $8, AX
	SUBQ $8, R10

tail:
	TESTQ R10, R10
	JEQ   done
	TAIL_MASK
	BLOCK(COLS8, GATHER_ROW, G_LOADM, G_ADDM, G_STOREM, zm, lm, cm)

done:
	VZEROUPPER
	RET

// func sumRowsScaledVec(dst, src *float32, idx *int32, scale *float32, m, n, stride int, zero bool)
TEXT ·sumRowsScaledVec(SB), NOSPLIT, $0-57
	MOVQ    dst+0(FP), DI
	MOVQ    src+8(FP), SI
	MOVQ    idx+16(FP), DX
	MOVQ    scale+24(FP), BX
	MOVQ    m+32(FP), CX
	MOVQ    n+40(FP), R11
	MOVQ    stride+48(FP), R13
	MOVBQZX zero+56(FP), R14
	SHLQ    $2, R13
	XORQ    AX, AX

next64:
	MOVQ R11, R10
	SUBQ AX, R10
	CMPQ R10, $64
	JLT  next32
	BLOCK(COLS64, SCALED_ROW, G_MUL, G_MULADD, G_STORE, z64, l64, c64)
	ADDQ $64, AX
	JMP  next64

next32:
	CMPQ R10, $32
	JLT  next16
	BLOCK(COLS32, SCALED_ROW, G_MUL, G_MULADD, G_STORE, z32, l32, c32)
	ADDQ $32, AX
	SUBQ $32, R10

next16:
	CMPQ R10, $16
	JLT  next8
	BLOCK(COLS16, SCALED_ROW, G_MUL, G_MULADD, G_STORE, z16, l16, c16)
	ADDQ $16, AX
	SUBQ $16, R10

next8:
	CMPQ R10, $8
	JLT  tail
	BLOCK(COLS8, SCALED_ROW, G_MUL, G_MULADD, G_STORE, z8, l8, c8)
	ADDQ $8, AX
	SUBQ $8, R10

tail:
	TESTQ R10, R10
	JEQ   done
	TAIL_MASK
	BLOCK(COLS8, SCALED_ROW, G_MULM, G_MULADDM, G_STOREM, zm, lm, cm)

done:
	VZEROUPPER
	RET

// dst[i] = the sum, from +0 in ascending p, of rows[i][p]*x[p] for the m rows
// of width k packed in rows — dotRows' order with one row per lane. Rows go
// eight at a time: each 8×8 tile of the group (eight rows, eight columns) is
// loaded a row per register and transposed in registers (unpack, shuffle,
// 128-bit permute), so register q holds column p+q of all eight rows, and
// then folded into the one accumulator column by column, a rounded multiply
// by the broadcast x[p+q] then a rounded add. The k%8 last columns are a
// masked tile whose first k%8 transposed columns are folded. Requires m a
// multiple of 8 and k >= 1.

// DOT_TRANSPOSE turns Y0..Y7 (rows a..h, columns 0..7) into the columns
// 0..7 in Y10, Y11, Y12, Y13, Y0, Y1, Y2, Y3. The unpacks pair rows (Y8 =
// a0 b0 a1 b1 | a4 b4 a5 b5), the shuffles make quads (Y2 = a0 b0 c0 d0 |
// a4 b4 c4 d4, Y6 = e0 f0 g0 h0 | e4 f4 g4 h4), and the permutes join the
// 128-bit halves (0x20 the low ones: column 0; 0x31 the high ones: column 4).
#define DOT_TRANSPOSE                  \
	VUNPCKLPS  Y1, Y0, Y8;         \
	VUNPCKHPS  Y1, Y0, Y9;         \
	VUNPCKLPS  Y3, Y2, Y10;        \
	VUNPCKHPS  Y3, Y2, Y11;        \
	VUNPCKLPS  Y5, Y4, Y12;        \
	VUNPCKHPS  Y5, Y4, Y13;        \
	VUNPCKLPS  Y7, Y6, Y0;         \
	VUNPCKHPS  Y7, Y6, Y1;         \
	VSHUFPS    $0x44, Y10, Y8, Y2; \
	VSHUFPS    $0xEE, Y10, Y8, Y3; \
	VSHUFPS    $0x44, Y11, Y9, Y4; \
	VSHUFPS    $0xEE, Y11, Y9, Y5; \
	VSHUFPS    $0x44, Y0, Y12, Y6; \
	VSHUFPS    $0xEE, Y0, Y12, Y7; \
	VSHUFPS    $0x44, Y1, Y13, Y8; \
	VSHUFPS    $0xEE, Y1, Y13, Y9; \
	VPERM2F128 $0x20, Y6, Y2, Y10; \
	VPERM2F128 $0x20, Y7, Y3, Y11; \
	VPERM2F128 $0x20, Y8, Y4, Y12; \
	VPERM2F128 $0x20, Y9, Y5, Y13; \
	VPERM2F128 $0x31, Y6, Y2, Y0;  \
	VPERM2F128 $0x31, Y7, Y3, Y1;  \
	VPERM2F128 $0x31, Y8, Y4, Y2;  \
	VPERM2F128 $0x31, Y9, Y5, Y3

// DOT_TERM folds column col (x[p+q] at xoff(R10)) into the accumulator Y15.
#define DOT_TERM(xoff, col) \
	VBROADCASTSS xoff(R10), Y14; \
	VMULPS       Y14, col, col;  \
	VADDPS       col, Y15, Y15

// func dotRowsVec(dst, rows, x *float32, m, k int)
TEXT ·dotRowsVec(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ rows+8(FP), SI
	MOVQ x+16(FP), DX
	MOVQ m+24(FP), CX
	MOVQ k+32(FP), R11
	LEAQ (R11*4), R12      // bytes per row
	LEAQ (R12)(R12*2), R13 // three rows
	MOVQ R11, BX
	ANDQ $7, BX            // columns in the masked tile
	SHRQ $3, R11           // whole tiles
	SHRQ $3, CX            // groups of eight rows
	LEAQ tailmask<>+32(SB), AX
	MOVQ BX, R14
	SHLQ $2, R14
	SUBQ R14, AX           // the mask of BX lanes

group:
	TESTQ  CX, CX
	JEQ    done
	VXORPS Y15, Y15, Y15
	MOVQ   SI, R8             // rows a..d
	LEAQ   (SI)(R12*4), R9    // rows e..h
	MOVQ   DX, R10
	MOVQ   R11, R14
	TESTQ  R14, R14
	JEQ    tail

tile:
	VMOVUPS (R8), Y0
	VMOVUPS (R8)(R12*1), Y1
	VMOVUPS (R8)(R12*2), Y2
	VMOVUPS (R8)(R13*1), Y3
	VMOVUPS (R9), Y4
	VMOVUPS (R9)(R12*1), Y5
	VMOVUPS (R9)(R12*2), Y6
	VMOVUPS (R9)(R13*1), Y7
	DOT_TRANSPOSE
	DOT_TERM(0, Y10)
	DOT_TERM(4, Y11)
	DOT_TERM(8, Y12)
	DOT_TERM(12, Y13)
	DOT_TERM(16, Y0)
	DOT_TERM(20, Y1)
	DOT_TERM(24, Y2)
	DOT_TERM(28, Y3)
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	DECQ R14
	JNZ  tile

tail:
	TESTQ      BX, BX
	JEQ        store
	VMOVDQU    (AX), Y14
	VMASKMOVPS (R8), Y14, Y0
	VMASKMOVPS (R8)(R12*1), Y14, Y1
	VMASKMOVPS (R8)(R12*2), Y14, Y2
	VMASKMOVPS (R8)(R13*1), Y14, Y3
	VMASKMOVPS (R9), Y14, Y4
	VMASKMOVPS (R9)(R12*1), Y14, Y5
	VMASKMOVPS (R9)(R12*2), Y14, Y6
	VMASKMOVPS (R9)(R13*1), Y14, Y7
	DOT_TRANSPOSE
	DOT_TERM(0, Y10)
	CMPQ       BX, $2
	JLT        store
	DOT_TERM(4, Y11)
	CMPQ       BX, $3
	JLT        store
	DOT_TERM(8, Y12)
	CMPQ       BX, $4
	JLT        store
	DOT_TERM(12, Y13)
	CMPQ       BX, $5
	JLT        store
	DOT_TERM(16, Y0)
	CMPQ       BX, $6
	JLT        store
	DOT_TERM(20, Y1)
	CMPQ       BX, $7
	JLT        store
	DOT_TERM(24, Y2)

store:
	VMOVUPS Y15, (DI)
	ADDQ    $32, DI
	LEAQ    (SI)(R12*8), SI
	DECQ    CX
	JMP     group

done:
	VZEROUPPER
	RET
