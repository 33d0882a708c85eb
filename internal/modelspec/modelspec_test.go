package modelspec

import (
	"fmt"
	"strings"
	"testing"
)

func TestParseValid(t *testing.T) {
	cases := map[string]string{
		"z:0.975":          "Z^0.975",
		"v:1.5":            "V^1.5",
		"l":                "L",
		"dar:0.975:2":      "DAR(2)[Z^0.975]",
		"dar1:0.8":         "DAR(1)",
		"fgn:0.9":          "FGN(H=0.9)",
		"mginf:0.9":        "M/G/inf(γ=1.2)",
		"mpeg:0.9":         "MPEG[Z^0.9]",
		" Z:0.7 ":          "Z^0.7", // case and whitespace insensitive
		"aimd:z:0.975":     "AIMD[Z^0.975]",
		"aimd:dar:0.975:1": "AIMD[DAR(1)[Z^0.975]]", // nested specs keep their colons
	}
	for spec, wantName := range cases {
		m, err := Parse(spec)
		if err != nil {
			t.Errorf("%q: %v", spec, err)
			continue
		}
		if m.Name() != wantName {
			t.Errorf("%q: name %q, want %q", spec, m.Name(), wantName)
		}
		if m.Mean() != 500 {
			t.Errorf("%q: mean %v, want 500", spec, m.Mean())
		}
	}
}

func TestParseInvalid(t *testing.T) {
	bad := []string{
		"", "q:1", "z", "z:abc", "z:2", "v:-1", "l:1",
		"dar", "dar:0.9", "dar:0.9:x", "dar:0.9:0", "dar:0.975:65", "dar:0.975:100000",
		"dar1:1.5", "fgn:0", "fgn", "dar1",
		"mginf:0.5", "mginf", "mpeg:0", "mpeg", "farima:0.6", "farima", "mmpp:0", "mmpp",
		"aimd", "aimd:", "aimd:q:1", "aimd:z:2",
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("%q: expected error", spec)
		}
	}
}

// TestParseRejectsNonFinite feeds every numeric parameter NaN and ±Inf.
// strconv.ParseFloat accepts them, and each lo < x < hi range check lets
// NaN through, so without an explicit guard z:nan simulated all-zero CLRs
// and v:inf hung the generator.
func TestParseRejectsNonFinite(t *testing.T) {
	forms := []string{"z:%s", "v:%s", "dar:%s:1", "dar1:%s", "fgn:%s", "mginf:%s",
		"mpeg:%s", "farima:%s", "mmpp:%s", "aimd:z:%s"}
	for _, form := range forms {
		for _, x := range []string{"nan", "NaN", "inf", "+Inf", "-inf", "infinity"} {
			spec := fmt.Sprintf(form, x)
			if m, err := Parse(spec); err == nil {
				t.Errorf("%q: parsed as %s, want an error", spec, m.Name())
			}
		}
	}
}

func TestParseList(t *testing.T) {
	ms, err := ParseList("z:0.7, dar:0.7:1 ,l")
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 {
		t.Fatalf("got %d models", len(ms))
	}
	if !strings.HasPrefix(ms[1].Name(), "DAR(1)") {
		t.Fatalf("second model %q", ms[1].Name())
	}
	if _, err := ParseList(" , "); err == nil {
		t.Fatal("empty list should error")
	}
	if _, err := ParseList("z:0.7,bogus"); err == nil {
		t.Fatal("bad entry should error")
	}
}
