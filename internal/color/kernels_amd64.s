#include "textflag.h"

// SSE2 kernels for the decoder's colour back phase. Each computes exactly
// what the scalar kernel beside it in Go computes (pointwise_rows.go,
// color.go): every intermediate is exact in its 16- or 32-bit lane, and
// packuswb's unsigned saturation is the clamp. The Go wrappers in
// kernels_amd64.go hand each kernel whole 16-sample chunks that keep its
// loads inside the input rows and its stores inside the output row.

// Bytes 0x80: XOR turns an unsigned chroma byte c into the signed byte
// c-128.
DATA ycc_x80<>+0(SB)/8, $0x8080808080808080
DATA ycc_x80<>+8(SB)/8, $0x8080808080808080
GLOBL ycc_x80<>(SB), RODATA|NOPTR, $16

// Words 0x00ff: the even byte of each word.
DATA ycc_m00ff<>+0(SB)/8, $0x00ff00ff00ff00ff
DATA ycc_m00ff<>+8(SB)/8, $0x00ff00ff00ff00ff
GLOBL ycc_m00ff<>(SB), RODATA|NOPTR, $16

// Words 26345 = 91881 - 65536, the fraction of FIX(1.40200).
DATA ycc_kr<>+0(SB)/8, $0x66e966e966e966e9
DATA ycc_kr<>+8(SB)/8, $0x66e966e966e966e9
GLOBL ycc_kr<>(SB), RODATA|NOPTR, $16

// Words -14942 = 116130 - 131072, the fraction of FIX(1.77200).
DATA ycc_kb<>+0(SB)/8, $0xc5a2c5a2c5a2c5a2
DATA ycc_kb<>+8(SB)/8, $0xc5a2c5a2c5a2c5a2
GLOBL ycc_kb<>(SB), RODATA|NOPTR, $16

// Word pairs (11277, 23401): FIX(0.34414)/2 and FIX(0.71414)/2, the
// green weights of 2(Cb-128) and 2(Cr-128).
DATA ycc_kg<>+0(SB)/8, $0x5b692c0d5b692c0d
DATA ycc_kg<>+8(SB)/8, $0x5b692c0d5b692c0d
GLOBL ycc_kg<>(SB), RODATA|NOPTR, $16

// Dwords 32768, the rounding half of the 16-bit fixed point.
DATA ycc_half<>+0(SB)/8, $0x0000800000008000
DATA ycc_half<>+8(SB)/8, $0x0000800000008000
GLOBL ycc_half<>(SB), RODATA|NOPTR, $16

// func convertRowSSE2(dst, y, cb, cr *byte, chunks int)
//
// Converts 16·chunks pixels. With c = Cr-128 and d = Cb-128, each
// channel is YCbCrToRGB's expression split so every factor fits a
// 16-bit lane; the splits are exact because the parts taken out are
// whole multiples of 65536:
//
//	R = y + ((91881c + 32768) >> 16)
//	  = y + ((2c + pmulhw(2c, 26345) + 1) >> 1)
//	G = y - ((22554d + 46802c + 32768) >> 16)
//	  = y - ((pmaddwd((2d, 2c), (11277, 23401)) + 32768) >> 16)
//	B = y + ((116130d + 32768) >> 16)
//	  = y + ((4d + pmulhw(2d, -14942) + 1) >> 1)
//
// pmulhw(2k, K) is floor(Kk/32768), and floor((floor(x)+1)/2) equals
// floor((x+1)/2), so the R and B forms round as the scalar does.
//
// A chunk stores 50 bytes: its 48 and two scratch bytes that the next
// pixel's conversion overwrites, so the caller keeps at least one pixel
// after the last chunk.
TEXT ·convertRowSSE2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ y+8(FP), SI
	MOVQ cb+16(FP), BX
	MOVQ cr+24(FP), CX
	MOVQ chunks+32(FP), DX
	TESTQ DX, DX
	JLE convertDone
	MOVOU ycc_m00ff<>(SB), X15
	MOVOU ycc_x80<>(SB), X14
	MOVOU ycc_kr<>(SB), X13
	MOVOU ycc_kb<>(SB), X12
	MOVOU ycc_kg<>(SB), X11
	MOVOU ycc_half<>(SB), X10
	PCMPEQW X9, X9
	PSRLW $15, X9              // words 1

convertLoop:
	MOVOU (SI), X0             // y
	MOVOU (BX), X1             // cb
	MOVOU (CX), X2             // cr
	PXOR X14, X1               // d = cb-128, signed bytes
	PXOR X14, X2               // c = cr-128

	// Each byte into the high half of a word, then >>7: 2d and 2c as
	// words, pixels 0-7 (lo) and 8-15 (hi).
	PXOR X3, X3
	PUNPCKLBW X1, X3
	PSRAW $7, X3               // 2d lo
	PXOR X4, X4
	PUNPCKHBW X1, X4
	PSRAW $7, X4               // 2d hi
	PXOR X5, X5
	PUNPCKLBW X2, X5
	PSRAW $7, X5               // 2c lo
	PXOR X6, X6
	PUNPCKHBW X2, X6
	PSRAW $7, X6               // 2c hi

	PXOR X7, X7
	MOVO X0, X1
	PUNPCKLBW X7, X0           // y lo
	PUNPCKHBW X7, X1           // y hi

	// G: (2d, 2c) word pairs through pmaddwd, four pixels a register.
	MOVO X3, X2
	PUNPCKLWL X5, X2
	PMADDWL X11, X2
	PADDL X10, X2
	PSRAL $16, X2
	MOVO X3, X7
	PUNPCKHWL X5, X7
	PMADDWL X11, X7
	PADDL X10, X7
	PSRAL $16, X7
	PACKSSLW X7, X2
	MOVO X0, X7
	PSUBW X2, X7               // G lo
	MOVO X4, X2
	PUNPCKLWL X6, X2
	PMADDWL X11, X2
	PADDL X10, X2
	PSRAL $16, X2
	MOVO X4, X8
	PUNPCKHWL X6, X8
	PMADDWL X11, X8
	PADDL X10, X8
	PSRAL $16, X8
	PACKSSLW X8, X2
	MOVO X1, X8
	PSUBW X2, X8               // G hi
	PACKUSWB X8, X7            // G bytes

	// R.
	MOVO X5, X2
	PMULHW X13, X2
	PADDW X5, X2
	PADDW X9, X2
	PSRAW $1, X2
	PADDW X0, X2               // R lo
	MOVO X6, X5
	PMULHW X13, X5
	PADDW X6, X5
	PADDW X9, X5
	PSRAW $1, X5
	PADDW X1, X5               // R hi
	PACKUSWB X5, X2            // R bytes

	// B.
	MOVO X3, X5
	PMULHW X12, X5
	PADDW X3, X5
	PADDW X3, X5
	PADDW X9, X5
	PSRAW $1, X5
	PADDW X0, X5               // B lo
	MOVO X4, X6
	PMULHW X12, X6
	PADDW X4, X6
	PADDW X4, X6
	PADDW X9, X6
	PSRAW $1, X6
	PADDW X1, X6               // B hi
	PACKUSWB X6, X5            // B bytes

	// Interleave. Pixel pair k (pixels 2k, 2k+1) is the three words
	// A = (r2k, g2k), B = (b2k, r2k+1), C = (g2k+1, b2k+1).
	MOVO X7, X0
	PSLLW $8, X0
	MOVO X2, X1
	PAND X15, X1
	POR X1, X0                 // A
	MOVO X15, X1
	PANDN X2, X1
	MOVO X5, X3
	PAND X15, X3
	POR X3, X1                 // B
	PSRLW $8, X7
	MOVO X15, X3
	PANDN X5, X3
	POR X7, X3                 // C

	// Qword k = (A, B, C, 0): the six bytes of pair k and two scratch.
	MOVO X0, X4
	PUNPCKLWL X1, X4           // (A, B) pairs 0-3
	PUNPCKHWL X1, X0           // (A, B) pairs 4-7
	PXOR X6, X6
	MOVO X3, X8
	PUNPCKLWL X6, X8           // (C, 0) pairs 0-3
	PUNPCKHWL X6, X3           // (C, 0) pairs 4-7
	MOVO X4, X1
	PUNPCKLLQ X8, X4           // pairs 0, 1
	PUNPCKHLQ X8, X1           // pairs 2, 3
	MOVO X0, X2
	PUNPCKLLQ X3, X0           // pairs 4, 5
	PUNPCKHLQ X3, X2           // pairs 6, 7

	// In order, so each store overwrites its predecessor's scratch.
	MOVQ X4, 0(DI)
	MOVHPS X4, 6(DI)
	MOVQ X1, 12(DI)
	MOVHPS X1, 18(DI)
	MOVQ X0, 24(DI)
	MOVHPS X0, 30(DI)
	MOVQ X2, 36(DI)
	MOVHPS X2, 42(DI)

	ADDQ $16, SI
	ADDQ $16, BX
	ADDQ $16, CX
	ADDQ $48, DI
	DECQ DX
	JNZ convertLoop

convertDone:
	RET

// func upsampleH2V1SSE2(out, in *byte, chunks int)
//
// Fills out[2i], out[2i+1] for the 16·chunks samples in[0..], reading
// in[-1] through in[16·chunks]:
//
//	out[2i]   = (3in[i] + in[i-1] + 1) >> 2
//	out[2i+1] = (3in[i] + in[i+1] + 2) >> 2
TEXT ·upsampleH2V1SSE2(SB), NOSPLIT, $0-24
	MOVQ out+0(FP), DI
	MOVQ in+8(FP), SI
	MOVQ chunks+16(FP), CX
	TESTQ CX, CX
	JLE h2v1Done
	PXOR X15, X15
	PCMPEQW X14, X14
	PSRLW $15, X14             // words 1
	MOVO X14, X13
	PADDW X13, X13             // words 2

h2v1Loop:
	MOVOU -1(SI), X0           // in[i-1]
	MOVOU (SI), X1             // in[i]
	MOVOU 1(SI), X2            // in[i+1]

	MOVO X1, X3
	PUNPCKLBW X15, X3
	MOVO X3, X4
	PADDW X4, X4
	PADDW X3, X4               // 3in[i], samples 0-7
	MOVO X0, X5
	PUNPCKLBW X15, X5
	PADDW X4, X5
	PADDW X14, X5
	PSRLW $2, X5               // even outputs
	MOVO X2, X6
	PUNPCKLBW X15, X6
	PADDW X4, X6
	PADDW X13, X6
	PSRLW $2, X6               // odd outputs
	PSLLW $8, X6
	POR X6, X5
	MOVOU X5, 0(DI)

	PUNPCKHBW X15, X1
	MOVO X1, X4
	PADDW X4, X4
	PADDW X1, X4               // 3in[i], samples 8-15
	PUNPCKHBW X15, X0
	PADDW X4, X0
	PADDW X14, X0
	PSRLW $2, X0
	PUNPCKHBW X15, X2
	PADDW X4, X2
	PADDW X13, X2
	PSRLW $2, X2
	PSLLW $8, X2
	POR X2, X0
	MOVOU X0, 16(DI)

	ADDQ $16, SI
	ADDQ $32, DI
	DECQ CX
	JNZ h2v1Loop

h2v1Done:
	RET

// BLEND sets lo and hi to the words v = 3near + far of the 16 samples
// at byte offset off, samples 0-7 and 8-15; t0 and t1 are scratch and
// X15 is zero.
#define BLEND(off, lo, hi, t0, t1) \
	MOVOU off(SI), lo; \
	MOVOU off(BX), t0; \
	MOVO lo, hi; \
	PUNPCKLBW X15, lo; \
	PUNPCKHBW X15, hi; \
	MOVO t0, t1; \
	PUNPCKLBW X15, t0; \
	PUNPCKHBW X15, t1; \
	PADDW lo, t0; \
	PADDW lo, lo; \
	PADDW t0, lo; \
	PADDW hi, t1; \
	PADDW hi, hi; \
	PADDW t1, hi

// func upsampleH2V2SSE2(out, near, far *byte, chunks int)
//
// Fills out[2i], out[2i+1] for the 16·chunks samples near[0..],
// far[0..], reading both rows from [-1] through [16·chunks]. With
// v[i] = 3near[i] + far[i]:
//
//	out[2i]   = (3v[i] + v[i-1] + 8) >> 4
//	out[2i+1] = (3v[i] + v[i+1] + 7) >> 4
TEXT ·upsampleH2V2SSE2(SB), NOSPLIT, $0-32
	MOVQ out+0(FP), DI
	MOVQ near+8(FP), SI
	MOVQ far+16(FP), BX
	MOVQ chunks+24(FP), CX
	TESTQ CX, CX
	JLE h2v2Done
	PXOR X15, X15
	PCMPEQW X13, X13           // words -1
	MOVO X13, X14
	PSRLW $15, X14
	PSLLW $3, X14              // words 8
	PADDW X14, X13             // words 7

h2v2Loop:
	BLEND(0, X0, X1, X2, X3)
	MOVO X0, X4
	PADDW X4, X4
	PADDW X0, X4               // 3v[i], samples 0-7
	MOVO X1, X5
	PADDW X5, X5
	PADDW X1, X5               // 3v[i], samples 8-15

	BLEND(-1, X0, X1, X2, X3)
	PADDW X4, X0
	PADDW X14, X0
	PSRLW $4, X0               // even outputs, samples 0-7
	PADDW X5, X1
	PADDW X14, X1
	PSRLW $4, X1               // even outputs, samples 8-15

	BLEND(1, X2, X3, X6, X7)
	PADDW X4, X2
	PADDW X13, X2
	PSRLW $4, X2               // odd outputs, samples 0-7
	PADDW X5, X3
	PADDW X13, X3
	PSRLW $4, X3               // odd outputs, samples 8-15

	PSLLW $8, X2
	POR X2, X0
	MOVOU X0, 0(DI)
	PSLLW $8, X3
	POR X3, X1
	MOVOU X1, 16(DI)

	ADDQ $16, SI
	ADDQ $16, BX
	ADDQ $32, DI
	DECQ CX
	JNZ h2v2Loop

h2v2Done:
	RET
