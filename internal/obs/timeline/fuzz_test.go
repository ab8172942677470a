package timeline

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadCSV feeds arbitrary bytes to ReadCSV. It must never panic, and a
// capture it accepts must survive WriteCSV and a second ReadCSV unchanged.
// Seeds live in testdata/fuzz/FuzzReadCSV (the golden capture and a
// histogram column with no field).
func FuzzReadCSV(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tl, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, tl.Samples, tl.IntervalNs, tl.SLOs); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("re-encoded capture rejected: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(back, tl) {
			t.Fatalf("round trip changed the capture:\n got %+v\nwant %+v", back, tl)
		}
	})
}

// FuzzParseSLO feeds arbitrary specs to ParseSLO. It must never panic, and
// an SLO it accepts must be one a window can meet or miss: a percentile
// strictly between 0 and 100, a positive threshold and the derived target.
// Seeds live in testdata/fuzz/FuzzParseSLO.
func FuzzParseSLO(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseSLO(spec)
		if err != nil {
			return
		}
		if !(s.Percentile > 0 && s.Percentile < 100) || s.ThresholdNs <= 0 || s.Target != s.Percentile/100 {
			t.Fatalf("ParseSLO(%q) accepted %+v", spec, s)
		}
	})
}
