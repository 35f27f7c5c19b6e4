package server

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// parseEquivalenceCases mixes clean inputs (fast path) with every
// tricky shape that must fall back; it also seeds FuzzParseRowsFlat.
var parseEquivalenceCases = []struct {
	name, contentType, body string
}{
	{"csv simple", "text/csv", "1,2\n3,4\n"},
	{"csv no trailing newline", "text/csv", "1,2\n3,4"},
	{"csv negatives and exponents", "text/csv", "-1.5,2e3\n+0.25,-4E-2\n"},
	{"csv blank lines", "text/csv", "\n1,2\n\n3,4\n\n"},
	{"csv spaces around fields", "text/csv", " 1 , 2 \n 3 , 4 \n"},
	{"csv crlf", "text/csv", "1,2\r\n3,4\r\n"},
	{"csv header", "text/csv", "x,y\n1,2\n3,4\n"},
	{"csv header then bad row", "text/csv", "x,y\n1,2\nfoo,4\n"},
	{"csv trailing comma", "text/csv", "1,2,\n3,4,\n"},
	{"csv ragged", "text/csv", "1,2\n3,4,5\n"},
	{"csv inf", "text/csv", "Inf,2\n3,4\n"},
	{"csv nan", "text/csv", "NaN,2\n"},
	{"csv hex float", "text/csv", "0x1p3,2\n"},
	{"csv unicode space", "text/csv", " 1,2\n"},
	{"csv single column", "text/csv", "1\n2\n3\n"},
	{"csv empty", "text/csv", ""},
	{"csv only blank lines", "text/csv", "\n\n"},
	{"csv garbage", "text/csv", "hello world\nnot,numbers\n"},
	{"json bare array", "application/json", `[[1,2],[3,4]]`},
	{"json points object", "application/json", `{"points":[[1,2],[3,4]]}`},
	{"json whitespace", "application/json", " {\n\t\"points\": [ [1, 2] , [3, 4] ] }\n"},
	{"json exponents", "application/json", `[[1e-3,2.5E2],[-0.125,3]]`},
	{"json empty outer", "application/json", `[]`},
	{"json empty points", "application/json", `{"points":[]}`},
	{"json empty row", "application/json", `[[]]`},
	{"json ragged", "application/json", `[[1,2],[3]]`},
	{"json extra key", "application/json", `{"points":[[1,2]],"mode":"fast"}`},
	{"json trailing garbage", "application/json", `[[1,2]] extra`},
	{"json string element", "application/json", `[["1",2]]`},
	{"json nested too deep", "application/json", `[[[1]]]`},
	{"json null", "application/json", `null`},
	{"json not rows", "application/json", `{"points":"nope"}`},
	{"json plus sign", "application/json", `[[+1,2]]`},
	{"json sniffed from csv content type", "text/csv", `{"points":[[1,2]]}`},
	{"default content type csv", "", "1,2\n3,4\n"},
	{"empty body json", "application/json", ""},
}

// TestParseRowsFlatEquivalence is the fast-parse contract: for every
// input, parseRowsFlat must accept exactly what parsePoints accepts,
// produce the same rows, and fail with the same error text. The fast
// scanners achieve this by falling back to parsePoints for anything
// outside their conservative subset, so the table deliberately mixes
// clean inputs (fast path) with every tricky shape that must fall back.
func TestParseRowsFlatEquivalence(t *testing.T) {
	for _, tc := range parseEquivalenceCases {
		t.Run(tc.name, func(t *testing.T) {
			checkFlatMatchesPoints(t, tc.contentType, []byte(tc.body))
		})
	}
}

// FuzzParseRowsFlat is TestParseRowsFlatEquivalence over arbitrary
// bodies and content types, seeded from its table.
func FuzzParseRowsFlat(f *testing.F) {
	for _, tc := range parseEquivalenceCases {
		f.Add(tc.contentType, []byte(tc.body))
	}
	f.Fuzz(checkFlatMatchesPoints)
}

// checkFlatMatchesPoints fails unless parseRowsFlat and parsePoints
// agree on one body: both accept it with bit-identical values, or both
// reject it with the same error text.
func checkFlatMatchesPoints(t *testing.T, contentType string, body []byte) {
	t.Helper()
	wantRows, wantErr := parsePoints(contentType, body)
	flat, n, dim, err := parseRowsFlat(contentType, body, nil)

	// parsePoints tolerates ragged rows (the legacy pipeline rejects
	// them one stage later, at classification), but a flat buffer cannot
	// represent them: the flat path must reject at parse time instead.
	// Either way the handler answers 400.
	ragged := false
	for _, row := range wantRows {
		if len(row) != len(wantRows[0]) {
			ragged = true
		}
	}
	if wantErr == nil && ragged {
		if err == nil {
			t.Fatal("ragged rows: flat parse succeeded, want error")
		}
		return
	}

	if (err == nil) != (wantErr == nil) {
		t.Fatalf("error mismatch: flat err=%v, parsePoints err=%v", err, wantErr)
	}
	if err != nil {
		if err.Error() != wantErr.Error() {
			t.Fatalf("error text: flat %q, parsePoints %q", err, wantErr)
		}
		return
	}
	if n != len(wantRows) {
		t.Fatalf("n = %d, want %d", n, len(wantRows))
	}
	if n > 0 && dim != len(wantRows[0]) {
		t.Fatalf("dim = %d, want %d", dim, len(wantRows[0]))
	}
	for i, row := range wantRows {
		for j, v := range row {
			if got := flat[i*dim+j]; math.Float64bits(got) != math.Float64bits(v) {
				t.Fatalf("row %d col %d: flat %v, want %v", i, j, got, v)
			}
		}
	}
}

// TestParseRowsFlatReusesDst pins the pooling contract: a dst buffer
// with capacity is filled in place (no fresh allocation) and the
// returned flat aliases it.
func TestParseRowsFlatReusesDst(t *testing.T) {
	dst := make([]float64, 0, 64)
	flat, n, dim, err := parseRowsFlat("text/csv", []byte("1,2\n3,4\n"), dst)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || dim != 2 {
		t.Fatalf("n=%d dim=%d, want 2,2", n, dim)
	}
	if &flat[0] != &dst[:1][0] {
		t.Fatal("flat does not alias dst: fast path allocated a new buffer")
	}
}

func benchBody(rows int) (csv, jsonBody string) {
	rng := rand.New(rand.NewSource(5))
	var c, j strings.Builder
	j.WriteString(`{"points":[`)
	for i := 0; i < rows; i++ {
		x, y := rng.NormFloat64(), rng.NormFloat64()
		fmt.Fprintf(&c, "%.6f,%.6f\n", x, y)
		if i > 0 {
			j.WriteByte(',')
		}
		fmt.Fprintf(&j, "[%.6f,%.6f]", x, y)
	}
	j.WriteString(`]}`)
	return c.String(), j.String()
}

// BenchmarkParse measures the allocation savings of the flat fast path
// over the rows-of-slices parser — the satellite's allocs/op proof.
// Run with -benchmem: the flat legs amortize to near-zero allocs/op
// once the pooled dst has warmed, while the rows legs allocate one
// slice per row plus the decoder machinery.
func BenchmarkParse(b *testing.B) {
	csvBody, jsonBody := benchBody(256)
	legs := []struct {
		name, contentType, body string
	}{
		{"csv", "text/csv", csvBody},
		{"json", "application/json", jsonBody},
	}
	for _, leg := range legs {
		body := []byte(leg.body)
		b.Run(leg.name+"/rows", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := parsePoints(leg.contentType, body); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(leg.name+"/flat", func(b *testing.B) {
			b.ReportAllocs()
			dst := make([]float64, 0, 1024)
			for i := 0; i < b.N; i++ {
				if _, _, _, err := parseRowsFlat(leg.contentType, body, dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
