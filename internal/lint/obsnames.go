package lint

import (
	"fmt"
	"go/ast"
	"regexp"
	"strconv"
)

// obsMetricName is the naming grammar for gcx metrics: gcx_-prefixed
// snake_case, the convention the README's scrape examples and dashboard
// queries rely on. The obs registry itself only enforces Prometheus
// validity; this pass enforces the repo convention at the call sites.
var obsMetricName = regexp.MustCompile(`^gcx(_[a-z0-9]+)+$`)

// obsCtors are the obs.Registry constructor methods whose first
// argument is the metric name.
var obsCtors = map[string]bool{
	"Counter":      true,
	"CounterFunc":  true,
	"CounterVec":   true,
	"Gauge":        true,
	"GaugeFunc":    true,
	"Histogram":    true,
	"HistogramVec": true,
}

// metricNameLit returns the literal a node registers a metric under: the
// first argument of an obs.Registry constructor call, or the Metric
// column of a statistics-table row (stats.Fields), which gcxd registers
// in a loop. Computed names are out of scope and yield nil.
func metricNameLit(n ast.Node) *ast.BasicLit {
	var name ast.Expr
	switch n := n.(type) {
	case *ast.CallExpr:
		if sel, ok := n.Fun.(*ast.SelectorExpr); ok && obsCtors[sel.Sel.Name] && len(n.Args) > 0 {
			name = n.Args[0]
		}
	case *ast.KeyValueExpr:
		if key, ok := n.Key.(*ast.Ident); ok && key.Name == "Metric" {
			name = n.Value
		}
	}
	lit, _ := name.(*ast.BasicLit)
	return lit
}

// slogOnlyPkgs are the server packages where every log line must go
// through log/slog: request logs are machine-consumed (one structured
// line per query), so a stray log.Printf would silently fall out of the
// pipeline.
var slogOnlyPkgs = map[string]bool{
	"gcx/cmd/gcxd":      true,
	"gcx/internal/gcxd": true,
}

// ObsNames enforces the observability conventions of DESIGN.md §11:
// metric names registered on the obs registry — directly or through the
// statistics table — are gcx_-prefixed snake_case, and the gcxd server
// packages log through slog only (no bare "log" import). Test files are
// exempt — registry tests exercise arbitrary names on purpose.
var ObsNames = &Analyzer{
	Name: "obsnames",
	Doc:  "enforce gcx_ snake_case metric names and slog-only logging in gcxd",
	Run: func(files []*File) []Finding {
		var out []Finding
		for _, f := range files {
			if f.Test {
				continue
			}
			if slogOnlyPkgs[f.PkgPath] {
				for _, imp := range f.AST.Imports {
					path, err := strconv.Unquote(imp.Path.Value)
					if err != nil || path != "log" {
						continue
					}
					out = append(out, Finding{
						Pos:      f.Fset.Position(imp.Pos()),
						Analyzer: "obsnames",
						Message: fmt.Sprintf(
							"package %s imports \"log\"; gcxd logs through log/slog only (one structured line per request — a bare log.Printf falls out of the pipeline)",
							f.PkgPath),
					})
				}
			}
			if !importsPath(f, "gcx/internal/obs") {
				continue
			}
			ast.Inspect(f.AST, func(n ast.Node) bool {
				lit := metricNameLit(n)
				if lit == nil {
					return true
				}
				name, err := strconv.Unquote(lit.Value)
				if err != nil || obsMetricName.MatchString(name) {
					return true
				}
				out = append(out, Finding{
					Pos:      f.Fset.Position(lit.Pos()),
					Analyzer: "obsnames",
					Message: fmt.Sprintf(
						"metric name %q is not gcx_-prefixed snake_case (want %s)",
						name, obsMetricName),
				})
				return true
			})
		}
		return out
	},
}

// importsPath reports whether the file imports the given package path.
func importsPath(f *File, pkg string) bool {
	for _, imp := range f.AST.Imports {
		if path, err := strconv.Unquote(imp.Path.Value); err == nil && path == pkg {
			return true
		}
	}
	return false
}
