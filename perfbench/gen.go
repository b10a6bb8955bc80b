package main

import (
	"math/rand"
	"strconv"

	"monoclass/internal/dataset"
	"monoclass/internal/geom"
	"monoclass/internal/online"
)

// Every generator draws from its own rand stream derived from the run
// seed, so adding a draw to one input never shifts another.
const (
	streamTrain = iota + 1
	streamQueries
	streamInserts
	streamProbes
	streamSetups
)

func rngFor(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

// plantedSet is dataset.Planted with unit weights: uniform points in
// [0,1]^d labelled by Σx > d/2, each label flipped with prob. noise.
func plantedSet(rng *rand.Rand, n, d int, noise float64) geom.WeightedSet {
	lps := dataset.Planted(rng, dataset.PlantedParams{N: n, D: d, Noise: noise})
	ws := make(geom.WeightedSet, n)
	for i, lp := range lps {
		ws[i] = geom.WeightedPoint{P: lp.P, Label: lp.Label, Weight: 1}
	}
	return ws
}

// bandSet generates n points on w explicit dominance chains: chain j
// holds points (t+j, …, t+w-j), so two points are comparable iff their
// parameters differ by at least |j-k|, giving a poset of width ≤ w at
// every n. Labels follow a threshold on t with coin-flip noise confined
// to a band of ≈2048 expected points around it, so the contending set
// and the flow network stay small while the prepare-side costs grow
// with n. Weights are 1..4. (Same shape as benchtab's -problem sweep.)
func bandSet(rng *rand.Rand, n, d, w int) geom.WeightedSet {
	const span, theta = 64.0, 32.0
	half := span * 1024.0 / float64(n)
	if half > span/4 {
		half = span / 4
	}
	ws := make(geom.WeightedSet, n)
	for i := range ws {
		t := rng.Float64() * span
		j := rng.Intn(w)
		p := make(geom.Point, d)
		for k := range p {
			off := float64(j)
			if k == d-1 {
				off = float64(w - j)
			}
			p[k] = t + off
		}
		label := geom.Negative
		if t > theta {
			label = geom.Positive
		}
		if t > theta-half && t < theta+half && rng.Intn(2) == 0 {
			label = 1 - label
		}
		ws[i] = geom.WeightedPoint{P: p, Label: label, Weight: float64(1 + rng.Intn(4))}
	}
	return ws
}

// uniformPoints draws n points uniform in [0,1]^d.
func uniformPoints(rng *rand.Rand, n, d int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, d)
		for k := range p {
			p[k] = rng.Float64()
		}
		pts[i] = p
	}
	return pts
}

// deltaTrace builds nBatches /learn batches of size batch over the live
// multiset initial: even batches insert fresh planted points, odd
// batches delete the oldest live points, so the live set returns to
// len(initial) after every odd batch.
func deltaTrace(rng *rand.Rand, initial geom.WeightedSet, nBatches, batch int, noise float64) [][]online.Delta {
	live := make([]geom.WeightedPoint, len(initial), len(initial)+nBatches*batch/2+batch)
	copy(live, initial)
	d := initial.Dim()
	out := make([][]online.Delta, nBatches)
	for b := range out {
		ds := make([]online.Delta, batch)
		if b%2 == 0 {
			fresh := plantedSet(rng, batch, d, noise)
			for i, wp := range fresh {
				ds[i] = online.Delta{Op: online.OpInsert, Point: wp.P, Label: wp.Label, Weight: wp.Weight}
			}
			live = append(live, fresh...)
		} else {
			for i := range ds {
				wp := live[i]
				ds[i] = online.Delta{Op: online.OpDelete, Point: wp.P, Label: wp.Label}
			}
			live = live[batch:]
		}
		out[b] = ds
	}
	return out
}

// appendPoint writes p as a JSON array with shortest round-trip float
// formatting, so the server decodes exactly the client's coordinates.
func appendPoint(buf []byte, p geom.Point) []byte {
	buf = append(buf, '[')
	for k, x := range p {
		if k > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendFloat(buf, x, 'g', -1, 64)
	}
	return append(buf, ']')
}

// classifyBody encodes a /classify/batch request.
func classifyBody(pts []geom.Point) []byte {
	buf := append(make([]byte, 0, len(pts)*64), `{"points":[`...)
	for i, p := range pts {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendPoint(buf, p)
	}
	return append(buf, "]}"...)
}

// learnBody encodes a /learn request.
func learnBody(ds []online.Delta) []byte {
	buf := append(make([]byte, 0, len(ds)*96), `{"deltas":[`...)
	for i, d := range ds {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"op":"`...)
		buf = append(buf, d.Op.String()...)
		buf = append(buf, `","point":`...)
		buf = appendPoint(buf, d.Point)
		buf = append(buf, `,"label":`...)
		buf = strconv.AppendInt(buf, int64(d.Label), 10)
		if d.Op == online.OpInsert {
			buf = append(buf, `,"weight":`...)
			buf = strconv.AppendFloat(buf, d.Weight, 'g', -1, 64)
		}
		buf = append(buf, '}')
	}
	return append(buf, "]}"...)
}
