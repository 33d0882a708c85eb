package traffic

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func writeTrace(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.txt")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReadTrace(t *testing.T) {
	got, err := ReadTrace(writeTrace(t, "# frame sizes\n512\n\n  498.5 \n1e3\n"))
	if err != nil || !slices.Equal(got, []float64{512, 498.5, 1000}) {
		t.Fatalf("ReadTrace = %v, %v; want [512 498.5 1000]", got, err)
	}
	if _, err := ReadTrace(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file: want an error")
	}
}

// TestReadTraceRejectsNonFinite holds every non-finite or unparsable line
// to an error that names its line number, comments and blanks counted.
func TestReadTraceRejectsNonFinite(t *testing.T) {
	for _, bad := range []string{"NaN", "nan", "Inf", "+inf", "-Inf", "1e400", "12 cells", "0x"} {
		path := writeTrace(t, "# header\n500\n\n"+bad+"\n510\n")
		xs, err := ReadTrace(path)
		if err == nil {
			t.Errorf("%q: ReadTrace = %v, want an error", bad, xs)
			continue
		}
		if want := path + ":4:"; !strings.Contains(err.Error(), want) {
			t.Errorf("%q: error %q does not name %s", bad, err, want)
		}
	}
}
