package problem

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"monoclass/internal/chains"
	"monoclass/internal/domgraph"
	"monoclass/internal/geom"
)

// problemFile is the on-disk JSON representation of a prepared
// Problem, versioned alongside the model format. It stores everything
// Prepare derives except the flow network (cheap to rebuild once the
// decomposition — the expensive part — is known): points, labels,
// weights, the chain decomposition with its antichain certificate, and
// optionally the dense matrix words, so a warm process skips Prepare
// entirely.
type problemFile struct {
	Format     string       `json:"format"`  // always "monoclass-problem"
	Version    int          `json:"version"` // currently 1
	Mode       string       `json:"mode"`
	Dim        int          `json:"dim"`
	Points     [][]jsonCoor `json:"points"`
	Labels     []int        `json:"labels"`
	Weights    []float64    `json:"weights"`
	Chains     [][]int      `json:"chains"`
	Antichain  []int        `json:"antichain,omitempty"`
	Width      int          `json:"width"`
	ExactWidth bool         `json:"exact_width"`
	// Matrix carries the dense bit-packed relation, included only for
	// small dense instances (n ≤ matrixBlobLimit); absent, a dense
	// reader rebuilds it with the kernel builder.
	Matrix *matrixBlob `json:"matrix,omitempty"`
}

// matrixBlob is the dense matrix's dom and dag words, little-endian
// uint64s, base64-encoded.
type matrixBlob struct {
	Dom string `json:"dom"`
	Dag string `json:"dag"`
}

// matrixBlobLimit caps the instance size whose matrix words are
// inlined into the file (4096 points ≈ 4 MiB of words before base64).
const matrixBlobLimit = 4096

// jsonCoor wraps a coordinate so ±Inf and NaN survive the round trip
// (same scheme as the model format, plus "nan" — problems may carry
// incomparable points that a classifier's anchors never do).
type jsonCoor struct {
	value float64
}

// MarshalJSON implements json.Marshaler.
func (c jsonCoor) MarshalJSON() ([]byte, error) {
	switch {
	case math.IsInf(c.value, -1):
		return []byte(`"-inf"`), nil
	case math.IsInf(c.value, 1):
		return []byte(`"+inf"`), nil
	case math.IsNaN(c.value):
		return []byte(`"nan"`), nil
	default:
		return json.Marshal(c.value)
	}
}

// UnmarshalJSON implements json.Unmarshaler.
func (c *jsonCoor) UnmarshalJSON(data []byte) error {
	var f float64
	if err := json.Unmarshal(data, &f); err == nil {
		c.value = f
		return nil
	}
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("problem: invalid coordinate %s", data)
	}
	switch s {
	case "-inf":
		c.value = math.Inf(-1)
	case "+inf":
		c.value = math.Inf(1)
	case "nan":
		c.value = math.NaN()
	default:
		return fmt.Errorf("problem: invalid coordinate string %q", s)
	}
	return nil
}

func encodeWords(words []uint64) string {
	buf := make([]byte, 8*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint64(buf[8*i:], w)
	}
	return base64.StdEncoding.EncodeToString(buf)
}

func decodeWords(s string) ([]uint64, error) {
	buf, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, err
	}
	if len(buf)%8 != 0 {
		return nil, fmt.Errorf("problem: matrix blob length %d not word-aligned", len(buf))
	}
	words := make([]uint64, len(buf)/8)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(buf[8*i:])
	}
	return words, nil
}

// Write serializes p as versioned JSON, computing a deferred
// decomposition first. The flow network is not stored; Read rebuilds
// it.
func Write(w io.Writer, p *Problem) error {
	dec := p.decomposition()
	pf := problemFile{
		Format:     "monoclass-problem",
		Version:    1,
		Mode:       p.mode.String(),
		Dim:        p.dim,
		Labels:     make([]int, len(p.ws)),
		Weights:    make([]float64, len(p.ws)),
		Chains:     dec.Chains,
		Antichain:  dec.Antichain,
		Width:      dec.Width,
		ExactWidth: p.exactWidth,
	}
	for _, pt := range p.pts {
		row := make([]jsonCoor, len(pt))
		for k, v := range pt {
			row[k] = jsonCoor{value: v}
		}
		pf.Points = append(pf.Points, row)
	}
	for i, wp := range p.ws {
		pf.Labels[i] = int(wp.Label)
		pf.Weights[i] = wp.Weight
	}
	if p.matrix != nil && p.matrix.N() <= matrixBlobLimit {
		n, words := p.matrix.N(), p.matrix.Words()
		dom := make([]uint64, 0, n*words)
		dag := make([]uint64, 0, n*words)
		for i := 0; i < n; i++ {
			dom = append(dom, p.matrix.DomRow(i)...)
			dag = append(dag, p.matrix.DAGRow(i)...)
		}
		pf.Matrix = &matrixBlob{Dom: encodeWords(dom), Dag: encodeWords(dag)}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(pf)
}

// Read deserializes a Problem written by Write, validating everything
// it trusts: format, version, mode, shapes, labels, weights, the chain
// decomposition (must be a valid partition in dominance order), the
// antichain certificate, and — when matrix words are present — the
// blob's structural invariants plus a deterministic sample of bits
// against the scalar dominance oracle. The flow network is rebuilt
// eagerly; the stored decomposition makes that the cheap part.
func Read(r io.Reader) (*Problem, error) {
	var pf problemFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&pf); err != nil {
		return nil, fmt.Errorf("problem: decoding: %w", err)
	}
	if pf.Format != "monoclass-problem" {
		return nil, fmt.Errorf("problem: unknown format %q", pf.Format)
	}
	if pf.Version != 1 {
		return nil, fmt.Errorf("problem: unsupported version %d", pf.Version)
	}
	mode, err := ParseMode(pf.Mode)
	if err != nil {
		return nil, err
	}
	if mode == ModeAuto {
		return nil, fmt.Errorf("problem: serialized mode must be resolved, got auto")
	}
	n := len(pf.Points)
	if n == 0 {
		return nil, fmt.Errorf("problem: empty point set")
	}
	if len(pf.Labels) != n || len(pf.Weights) != n {
		return nil, fmt.Errorf("problem: %d points but %d labels, %d weights", n, len(pf.Labels), len(pf.Weights))
	}
	if pf.Dim <= 0 {
		return nil, fmt.Errorf("problem: dimension %d must be positive", pf.Dim)
	}

	ws := make(geom.WeightedSet, n)
	for i, row := range pf.Points {
		if len(row) != pf.Dim {
			return nil, fmt.Errorf("problem: point %d has dimension %d, want %d", i, len(row), pf.Dim)
		}
		pt := make(geom.Point, pf.Dim)
		for k, c := range row {
			pt[k] = c.value
		}
		if pf.Labels[i] != 0 && pf.Labels[i] != 1 {
			return nil, fmt.Errorf("problem: point %d has non-binary label %d", i, pf.Labels[i])
		}
		ws[i] = geom.WeightedPoint{P: pt, Label: geom.Label(pf.Labels[i]), Weight: pf.Weights[i]}
	}
	if err := ws.Validate(); err != nil {
		return nil, err
	}
	pts := pointsOf(ws)

	if pf.Width != len(pf.Chains) {
		return nil, fmt.Errorf("problem: width %d but %d chains", pf.Width, len(pf.Chains))
	}
	if err := chains.ValidateDecomposition(pts, pf.Chains); err != nil {
		return nil, fmt.Errorf("problem: stored decomposition: %w", err)
	}
	if len(pf.Antichain) > 0 {
		if err := chains.ValidateAntichain(pts, pf.Antichain); err != nil {
			return nil, fmt.Errorf("problem: stored antichain: %w", err)
		}
		if pf.ExactWidth && len(pf.Antichain) != pf.Width {
			return nil, fmt.Errorf("problem: antichain of %d points cannot certify width %d", len(pf.Antichain), pf.Width)
		}
	}
	decomp := chains.Decomposition{Chains: pf.Chains, Width: pf.Width, Antichain: pf.Antichain}

	var matrix *domgraph.Matrix
	if mode == ModeDense {
		if pf.Matrix != nil {
			dom, derr := decodeWords(pf.Matrix.Dom)
			if derr != nil {
				return nil, fmt.Errorf("problem: matrix dom words: %w", derr)
			}
			dag, derr := decodeWords(pf.Matrix.Dag)
			if derr != nil {
				return nil, fmt.Errorf("problem: matrix dag words: %w", derr)
			}
			matrix, derr = domgraph.MatrixFromWords(n, dom, dag)
			if derr != nil {
				return nil, fmt.Errorf("problem: matrix blob: %w", derr)
			}
			if err := spotCheckMatrix(matrix, pts); err != nil {
				return nil, err
			}
		} else {
			matrix = domgraph.Build(pts)
		}
	}

	// A restored Problem keeps its stored decomposition verbatim;
	// PathLoaded with zero stage timings marks it as not freshly
	// prepared.
	p := &Problem{ws: ws, pts: pts, dim: pf.Dim, mode: mode, matrix: matrix}
	p.decOnce.Do(func() { p.setDecomposition(decomp, chains.DecomposeStats{}, pf.ExactWidth, PathLoaded, 0) })
	// An exact non-dense Problem at d ≥ 3 was prepared on a transient
	// matrix, and its network is the cover relation; rebuild it the
	// same way where the default limits allow a transient matrix.
	netMatrix := matrix
	if pf.ExactWidth && exactTransient(Options{}.withDefaults(), mode, n, pf.Dim) {
		netMatrix = domgraph.Build(pts)
	}
	p, err = p.assemble(netMatrix, decomp.Chains, PrepareStats{}, time.Now())
	if err != nil {
		return nil, err
	}
	p.stats.NetworkNS, p.stats.TotalNS = 0, 0
	return p, nil
}

// spotCheckMatrix samples pairs with a deterministic splitmix64 stream
// and holds the adopted words to the scalar dominance oracle — cheap
// insurance against a blob that is structurally valid but belongs to
// different points.
func spotCheckMatrix(m *domgraph.Matrix, pts []geom.Point) error {
	n := len(pts)
	samples := 1024
	if n*n < samples {
		samples = n * n
	}
	state := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for s := 0; s < samples; s++ {
		i := int(next() % uint64(n))
		j := int(next() % uint64(n))
		wantDom := i == j || geom.Dominates(pts[i], pts[j])
		if m.Dominates(i, j) != wantDom {
			return fmt.Errorf("problem: matrix blob disagrees with points at closure pair (%d,%d)", i, j)
		}
		if m.Edge(i, j) != domgraph.DominanceEdge(pts, i, j) {
			return fmt.Errorf("problem: matrix blob disagrees with points at dag pair (%d,%d)", i, j)
		}
	}
	return nil
}
