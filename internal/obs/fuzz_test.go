package obs

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadTrace feeds arbitrary bytes to ReadTrace. It must never panic,
// and a trace it accepts must survive WriteTrace and a second ReadTrace
// unchanged (WriteTrace sorts the spans it writes, so the comparison is
// against the sorted first read). Seeds live in testdata/fuzz/FuzzReadTrace
// (lines cut from the golden trace, a span ending before it starts, and
// data after the closing bracket).
func FuzzReadTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		spans, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, spans); err != nil {
			t.Fatal(err)
		}
		back, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("re-encoded trace rejected: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(back, spans) {
			t.Fatalf("round trip changed the trace:\n got %+v\nwant %+v", back, spans)
		}
	})
}
