//go:build !amd64

package color

// Without vector kernels the exported row functions run the scalar
// kernels over the whole row.

func convertRowVec(yr, cbr, crr, dst []byte, w int) int { return 0 }

func upsampleH2V1Vec(in, out []byte) int { return 0 }

func upsampleH2V2Vec(near, far, out []byte) int { return 0 }
