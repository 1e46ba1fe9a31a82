package gcx_test

import (
	"io"
	"strings"
	"testing"

	"gcx"
)

// TestExecuteUnknownEngine: an out-of-range Engine value must be
// reported, not silently fall back to EngineGCX.
func TestExecuteUnknownEngine(t *testing.T) {
	q := gcx.MustCompile(`<out>{ /a/b }</out>`)
	_, err := q.Execute(strings.NewReader("<a><b/></a>"), io.Discard, gcx.Options{Engine: gcx.Engine(42)})
	if err == nil {
		t.Fatal("expected error for unknown engine value")
	}
	if !strings.Contains(err.Error(), "unknown engine") {
		t.Errorf("err = %v, want mention of unknown engine", err)
	}
}

// TestExecuteKnownOptionValues: every documented combination still
// executes.
func TestExecuteKnownOptionValues(t *testing.T) {
	q := gcx.MustCompile(`<out>{ /a/b }</out>`)
	const doc = "<a><b>1</b></a>"
	for _, eng := range []gcx.Engine{gcx.EngineGCX, gcx.EngineProjectionOnly, gcx.EngineDOM} {
		out, _, err := q.ExecuteString(doc, gcx.Options{Engine: eng})
		if err != nil {
			t.Fatalf("engine %d: %v", eng, err)
		}
		if out != "<out><b>1</b></out>" {
			t.Errorf("engine %d: output %q", eng, out)
		}
	}
}

// TestParseEngine: the canonical names, the aliases the CLI and gcxd's
// ?engine= accept, and the round trip through Engine.String.
func TestParseEngine(t *testing.T) {
	cases := map[string]gcx.Engine{
		"": gcx.EngineGCX, "gcx": gcx.EngineGCX,
		"projection": gcx.EngineProjectionOnly, "proj": gcx.EngineProjectionOnly, "nogc": gcx.EngineProjectionOnly,
		"dom": gcx.EngineDOM, "naive": gcx.EngineDOM,
	}
	for s, want := range cases {
		got, err := gcx.ParseEngine(s)
		if err != nil || got != want {
			t.Errorf("ParseEngine(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := gcx.ParseEngine("bogus"); err == nil {
		t.Fatal("bogus engine accepted")
	}
	for eng, want := range map[gcx.Engine]string{
		gcx.EngineGCX: "gcx", gcx.EngineProjectionOnly: "projection", gcx.EngineDOM: "dom",
	} {
		if eng.String() != want {
			t.Errorf("Engine(%d).String() = %q, want %q", int(eng), eng.String(), want)
		}
		if back, err := gcx.ParseEngine(want); err != nil || back != eng {
			t.Errorf("ParseEngine(%q) = %v, %v; want %v", want, back, err, eng)
		}
	}
	if got := gcx.Engine(42).String(); got != "Engine(42)" {
		t.Errorf("out-of-range String() = %q", got)
	}
}
