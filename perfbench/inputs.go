package main

import (
	"fmt"
	"math/rand"
	"strconv"

	"tkdc/internal/dataset"
)

// Rows per /classify and per /ingest request.
const (
	classifyRows = 32
	ingestRows   = 256
)

// batch is one request's rows, both as the CSV body the client sends
// and as the flat row-major floats the body parses to. Coordinates are
// written with the shortest exact representation, so the server parses
// exactly the floats the correctness checks classify.
type batch struct {
	csv  []byte
	flat []float64
	n    int
}

// inputs is everything a workload sends the program, generated from the
// seed alone.
type inputs struct {
	dim     int
	n       int
	train   []float64 // n rows, row-major
	queries []batch   // classifyRows rows each
	ingest  []batch   // ingestRows rows each
	probe   []float64 // rows that replicas must label like their leader
	probeN  int

	retrainEvery int
	burst        int
}

// size is a workload's input shape at full scale.
type size struct {
	dataset string
	dim     int
	n       int // training rows
	queries int // query rows, split into classifyRows-row requests
	ingest  int // ingest batches of ingestRows rows
	probe   int // replica-parity probe rows
	drift   float64
	// retrainEvery is how many ingest batches stream-ingest-2d posts
	// between retrains.
	retrainEvery int
	// burst is how many passes over the ingest batches the ingest burst
	// of a workload that does not stream makes (ingestBurst).
	burst int
}

// scaled shrinks the row counts for test runs; scale 1 is the benchmark.
func (s size) scaled(scale float64) size {
	if scale >= 1 {
		return s
	}
	shrink := func(v, floor int) int { return max(floor, int(float64(v)*scale)) }
	s.n = shrink(s.n, 300)
	s.queries = shrink(s.queries, 4*classifyRows)
	s.ingest = shrink(s.ingest, 4)
	s.probe = shrink(s.probe, 32)
	s.retrainEvery = shrink(s.retrainEvery, 1)
	s.burst = shrink(s.burst, 1)
	return s
}

// shapeSeed fixes the shape of each dataset. The tmy3 and hep
// generators draw their clusters and loadings from their seed, so a
// different seed would be a different dataset, as easy or as hard as
// chance makes it; the run's seed instead draws which rows of a pool of
// poolFactor times the rows needed the run gets, and in which order.
const (
	shapeSeed  = 1
	poolFactor = 3
)

// makeInputs draws the training rows, query rows, ingest rows and probe
// rows from one pool, so all of them come from the same distribution.
// Ingest rows then drift: batch i is shifted by i·drift along the first
// axis.
func makeInputs(s size, seed int64) (*inputs, error) {
	total := s.n + s.queries + s.ingest*ingestRows + s.probe
	rows, err := dataset.Generate(s.dataset, poolFactor*total, s.dim, shapeSeed)
	if err != nil {
		return nil, err
	}
	if len(rows[0]) != s.dim {
		return nil, fmt.Errorf("dataset %s has dimension %d, want %d", s.dataset, len(rows[0]), s.dim)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	rows = rows[:total]

	in := &inputs{dim: s.dim, n: s.n, retrainEvery: s.retrainEvery, burst: s.burst}
	take := func(k int) [][]float64 {
		out := rows[:k]
		rows = rows[k:]
		return out
	}
	in.train = flatten(take(s.n))
	for q := take(s.queries); len(q) >= classifyRows; q = q[classifyRows:] {
		in.queries = append(in.queries, newBatch(q[:classifyRows], 0))
	}
	for i := 0; i < s.ingest; i++ {
		in.ingest = append(in.ingest, newBatch(take(ingestRows), float64(i)*s.drift))
	}
	in.probeN = s.probe
	in.probe = flatten(take(s.probe))
	return in, nil
}

func flatten(rows [][]float64) []float64 {
	if len(rows) == 0 {
		return nil
	}
	out := make([]float64, 0, len(rows)*len(rows[0]))
	for _, r := range rows {
		out = append(out, r...)
	}
	return out
}

func newBatch(rows [][]float64, shift float64) batch {
	b := batch{n: len(rows)}
	for _, r := range rows {
		for j, v := range r {
			if j == 0 {
				v += shift
			}
			if j > 0 {
				b.csv = append(b.csv, ',')
			}
			b.csv = strconv.AppendFloat(b.csv, v, 'g', -1, 64)
			b.flat = append(b.flat, v)
		}
		b.csv = append(b.csv, '\n')
	}
	return b
}
