package linalg

import "fmt"

// MatVec computes dst = A·x. dst must have length A.Rows() and must not
// alias x.
func MatVec(dst []float64, a *Dense, x []float64) {
	if len(x) != a.cols || len(dst) != a.rows {
		panic(fmt.Sprintf("linalg: matvec dimension mismatch A=%dx%d x=%d dst=%d", a.rows, a.cols, len(x), len(dst)))
	}
	for i := 0; i < a.rows; i++ {
		row := a.data[i*a.cols : (i+1)*a.cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
}

// MatVecAdd computes dst += A·x.
func MatVecAdd(dst []float64, a *Dense, x []float64) {
	if len(x) != a.cols || len(dst) != a.rows {
		panic(fmt.Sprintf("linalg: matvecadd dimension mismatch A=%dx%d x=%d dst=%d", a.rows, a.cols, len(x), len(dst)))
	}
	for i := 0; i < a.rows; i++ {
		row := a.data[i*a.cols : (i+1)*a.cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] += s
	}
}

// MatVecRange computes dst = A[:, j0:j0+len(x)]·x — a matrix-vector product
// against a contiguous column range of A (used by the factorized NN layer-1
// forward pass, where the weight matrix is column-partitioned by relation).
func MatVecRange(dst []float64, a *Dense, j0 int, x []float64) {
	if j0 < 0 || j0+len(x) > a.cols || len(dst) != a.rows {
		panic(fmt.Sprintf("linalg: matvecrange A=%dx%d j0=%d x=%d dst=%d", a.rows, a.cols, j0, len(x), len(dst)))
	}
	for i := 0; i < a.rows; i++ {
		row := a.data[i*a.cols+j0 : i*a.cols+j0+len(x)]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
}

// MatVecRangeAdd computes dst += A[:, j0:j0+len(x)]·x.
func MatVecRangeAdd(dst []float64, a *Dense, j0 int, x []float64) {
	if j0 < 0 || j0+len(x) > a.cols || len(dst) != a.rows {
		panic(fmt.Sprintf("linalg: matvecrangeadd A=%dx%d j0=%d x=%d dst=%d", a.rows, a.cols, j0, len(x), len(dst)))
	}
	for i := 0; i < a.rows; i++ {
		row := a.data[i*a.cols+j0 : i*a.cols+j0+len(x)]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] += s
	}
}

// VecMat computes dst = xᵀ·A (a row vector of length A.Cols()).
func VecMat(dst []float64, x []float64, a *Dense) {
	if len(x) != a.rows || len(dst) != a.cols {
		panic(fmt.Sprintf("linalg: vecmat dimension mismatch x=%d A=%dx%d dst=%d", len(x), a.rows, a.cols, len(dst)))
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < a.rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := a.data[i*a.cols : (i+1)*a.cols]
		for j, v := range row {
			dst[j] += xi * v
		}
	}
}

// MatMul computes C = A·B into dst, which must be A.Rows()×B.Cols() and must
// not alias a or b.
func MatMul(dst, a, b *Dense) {
	if a.cols != b.rows {
		panic(fmt.Sprintf("linalg: matmul inner dimension mismatch %dx%d · %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	if dst.rows != a.rows || dst.cols != b.cols {
		panic(fmt.Sprintf("linalg: matmul destination %dx%d for %dx%d result", dst.rows, dst.cols, a.rows, b.cols))
	}
	dst.Zero()
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		crow := dst.data[i*dst.cols : (i+1)*dst.cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// NewMatMul allocates and returns A·B.
func NewMatMul(a, b *Dense) *Dense {
	dst := NewDense(a.rows, b.cols)
	MatMul(dst, a, b)
	return dst
}

// OuterAccum accumulates dst += w · x·yᵀ. dst must be len(x)×len(y).
func OuterAccum(dst *Dense, w float64, x, y []float64) {
	if dst.rows != len(x) || dst.cols != len(y) {
		panic(fmt.Sprintf("linalg: outer dimension mismatch dst=%dx%d x=%d y=%d", dst.rows, dst.cols, len(x), len(y)))
	}
	for i, xi := range x {
		wx := w * xi
		if wx == 0 {
			continue
		}
		row := dst.data[i*dst.cols : (i+1)*dst.cols]
		for j, yj := range y {
			row[j] += wx * yj
		}
	}
}

// OuterAccumUpper accumulates the upper triangle (diagonal included) of
// dst += x·yᵀ for square dst, leaving the lower triangle untouched. When
// x·yᵀ is symmetric (x a multiple of y) the triangle carries the whole
// product at half the work; the caller mirrors it once at the end.
func OuterAccumUpper(dst *Dense, x, y []float64) {
	n := dst.rows
	if dst.cols != n || len(x) != n || len(y) != n {
		panic(fmt.Sprintf("linalg: upper outer dimension mismatch dst=%dx%d x=%d y=%d", dst.rows, dst.cols, len(x), len(y)))
	}
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		row := dst.data[i*n+i : (i+1)*n]
		for j, yj := range y[i:] {
			row[j] += xi * yj
		}
	}
}

// OuterAccumAt accumulates dst[i0+i][j0+j] += w·x[i]·y[j] — an outer-product
// accumulation into a sub-block of dst (used by the factorized NN gradient,
// whose layer-1 weight matrix is column-partitioned across relations).
func OuterAccumAt(dst *Dense, i0, j0 int, w float64, x, y []float64) {
	if i0 < 0 || j0 < 0 || i0+len(x) > dst.rows || j0+len(y) > dst.cols {
		panic(fmt.Sprintf("linalg: outerAt (%d,%d)+%dx%d out of bounds for %dx%d", i0, j0, len(x), len(y), dst.rows, dst.cols))
	}
	for i, xi := range x {
		wx := w * xi
		if wx == 0 {
			continue
		}
		row := dst.data[(i0+i)*dst.cols : (i0+i+1)*dst.cols]
		for j, yj := range y {
			row[j0+j] += wx * yj
		}
	}
}

// QuadForm returns xᵀ·A·x for square A.
func QuadForm(a *Dense, x []float64) float64 {
	if a.rows != a.cols || len(x) != a.rows {
		panic(fmt.Sprintf("linalg: quadform dimension mismatch A=%dx%d x=%d", a.rows, a.cols, len(x)))
	}
	var s float64
	for i := 0; i < a.rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := a.data[i*a.cols : (i+1)*a.cols]
		var r float64
		for j, v := range row {
			r += v * x[j]
		}
		s += xi * r
	}
	return s
}

// BilinearForm returns xᵀ·A·y for an r×c matrix A with len(x)==r, len(y)==c.
func BilinearForm(x []float64, a *Dense, y []float64) float64 {
	if len(x) != a.rows || len(y) != a.cols {
		panic(fmt.Sprintf("linalg: bilinear dimension mismatch x=%d A=%dx%d y=%d", len(x), a.rows, a.cols, len(y)))
	}
	var s float64
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		row := a.data[i*a.cols : (i+1)*a.cols]
		var r float64
		for j, v := range row {
			r += v * y[j]
		}
		s += xi * r
	}
	return s
}
