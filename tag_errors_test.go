package gcx_test

import (
	"bytes"
	"errors"
	"testing"

	"gcx"
	"gcx/internal/xmltok"
)

// TestModesAgreeOnTagErrors: a malformed attribute list is one error,
// at one offset, whichever engine runs the query and however many
// shards it asks for, on both backings. Under /a//c the streaming
// engines seek below a, so the first two documents' broken tag is a
// seek's chain tag and the third's the sought tag, which the DOM
// engine reads by full tokenization.
func TestModesAgreeOnTagErrors(t *testing.T) {
	q := gcx.MustCompile(`<r>{ for $x in /a//c return $x }</r>`)
	for _, doc := range []string{
		`<a><b><d x=1><c/></d></b></a>`,
		`<a><b><d x="&bogus;"><c/></d></b></a>`,
		`<a><b><c x="&amp/></b></a>`,
	} {
		var want *xmltok.SyntaxError
		for _, engine := range []gcx.Engine{gcx.EngineDOM, gcx.EngineGCX, gcx.EngineProjectionOnly} {
			for _, shards := range []int{1, 2} {
				opts := gcx.Options{Engine: engine, Shards: shards}
				for backing, run := range map[string]func() error{
					"bytes": func() error {
						_, err := q.ExecuteBytes([]byte(doc), new(bytes.Buffer), opts)
						return err
					},
					"reader": func() error {
						_, err := q.Execute(bytes.NewReader([]byte(doc)), new(bytes.Buffer), opts)
						return err
					},
				} {
					var se *xmltok.SyntaxError
					if err := run(); !errors.As(err, &se) {
						t.Fatalf("%s, %v, %d shards, %s backing: error %v, want a syntax error", doc, engine, shards, backing, err)
					}
					if want == nil {
						want = se
					} else if *se != *want {
						t.Errorf("%s: %v at %d shards on the %s backing fails at byte %d with %q; dom at byte %d with %q",
							doc, engine, shards, backing, se.Offset, se.Msg, want.Offset, want.Msg)
					}
				}
			}
		}
	}
}
