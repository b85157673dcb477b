package coreobject

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"

	"github.com/cognitive-sim/compass/internal/prng"
)

// TestReadModelNeverPanicsOnCorruption flips random bytes and truncates
// the encoded model at random offsets: ReadModel must either return an
// error or a valid model, never panic. Model files travel between
// machines and versions; decoding robustness is table stakes.
func TestReadModelNeverPanicsOnCorruption(t *testing.T) {
	m := binaryTestModel()
	var buf bytes.Buffer
	if err := WriteModel(&buf, m); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	r := prng.New(0xBADC0DE)

	check := func(data []byte, what string) {
		defer func() {
			if p := recover(); p != nil {
				t.Fatalf("ReadModel panicked on %s: %v", what, p)
			}
		}()
		got, err := ReadModel(bytes.NewReader(data))
		if err == nil {
			// Corruption that decodes must still be semantically valid.
			if verr := got.Validate(); verr != nil {
				t.Fatalf("ReadModel returned invalid model on %s: %v", what, verr)
			}
		}
	}

	for trial := 0; trial < 300; trial++ {
		data := append([]byte{}, clean...)
		flips := 1 + r.Intn(8)
		for f := 0; f < flips; f++ {
			i := r.Intn(len(data))
			data[i] ^= byte(1 + r.Intn(255))
		}
		check(data, "byte flips")
	}
	for trial := 0; trial < 100; trial++ {
		cut := r.Intn(len(clean) + 1)
		check(clean[:cut], "truncation")
	}
	for trial := 0; trial < 100; trial++ {
		data := make([]byte, r.Intn(512))
		for i := range data {
			data[i] = byte(r.Intn(256))
		}
		check(data, "random garbage")
	}
}

// TestDecodeSpecNeverPanicsOnGarbage mutates a valid JSON spec document.
func TestDecodeSpecNeverPanicsOnGarbage(t *testing.T) {
	spec := twoRegionSpec()
	var buf bytes.Buffer
	if err := spec.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	clean := buf.String()
	r := prng.New(0xF00D)
	for trial := 0; trial < 200; trial++ {
		data := []byte(clean)
		for f := 0; f < 1+r.Intn(5); f++ {
			data[r.Intn(len(data))] = byte(32 + r.Intn(95))
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("DecodeSpec panicked: %v", p)
				}
			}()
			got, err := DecodeSpec(strings.NewReader(string(data)))
			if err == nil {
				if verr := got.Validate(); verr != nil {
					t.Fatalf("DecodeSpec returned invalid spec: %v", verr)
				}
			}
		}()
	}
}

// TestHostileHeaderCountsStayBounded feeds 32-byte bodies whose headers
// claim huge record counts: each decoder must fail with an error at the
// first missing record — not panic — and allocate in proportion to the
// bytes it actually read, not to the count it was promised.
func TestHostileHeaderCountsStayBounded(t *testing.T) {
	model := func(numCores, numInputs uint64) []byte {
		b := []byte(binaryMagic)
		b = binary.LittleEndian.AppendUint32(b, binaryVersion)
		b = binary.LittleEndian.AppendUint64(b, 1) // seed
		b = binary.LittleEndian.AppendUint64(b, numCores)
		return binary.LittleEndian.AppendUint64(b, numInputs)
	}
	checkpoint := func(version uint32, numCores uint64) []byte {
		b := []byte(checkpointMagic)
		b = binary.LittleEndian.AppendUint32(b, version)
		b = binary.LittleEndian.AppendUint64(b, 0) // tick
		b = binary.LittleEndian.AppendUint64(b, numCores)
		if version >= 2 {
			b = binary.LittleEndian.AppendUint16(b, 0) // no model hash
		}
		return append(b, make([]byte, 32-len(b))...) // a truncated first record
	}
	readModel := func(b []byte) error { _, err := ReadModel(bytes.NewReader(b)); return err }
	readCheckpoint := func(b []byte) error { _, err := ReadCheckpoint(bytes.NewReader(b)); return err }
	cases := []struct {
		name string
		body []byte
		read func([]byte) error
	}{
		{"model max cores", model(1<<28-1, 0), readModel},
		{"model 2^62 inputs", model(0, 1<<62), readModel},
		{"model 2^64-1 inputs", model(0, 1<<64-1), readModel},
		{"model max cores and inputs", model(1<<28-1, 1<<62), readModel},
		{"checkpoint v1 max cores", checkpoint(1, 1<<28-1), readCheckpoint},
		{"checkpoint v2 max cores", checkpoint(2, 1<<28-1), readCheckpoint},
	}
	const maxAlloc = 4 << 20
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if len(tc.body) != 32 {
				t.Fatalf("body is %d bytes, want 32", len(tc.body))
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := func() (err error) {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("decoder panicked: %v", p)
					}
				}()
				return tc.read(tc.body)
			}()
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("decoder accepted a 32-byte body")
			}
			if d := after.TotalAlloc - before.TotalAlloc; d > maxAlloc {
				t.Fatalf("decoder allocated %d bytes for a 32-byte body (bound %d)", d, maxAlloc)
			}
		})
	}
}
