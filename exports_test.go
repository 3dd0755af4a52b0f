package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// unusedExportAllowlist names package-level exports under internal/ that no
// non-test code references but that stay on purpose, each with its reason.
var unusedExportAllowlist = map[string]string{
	"core.BatchNormLocal":        "value of the exported core.BatchNormMode enum",
	"core.NewConvInference":      "forward-only halo conv, the layer spatially sharded inference replicas need (ROADMAP item 12(b))",
	"kernels.ConvForwardBatched": "untraced ConvForwardBatchedTraced: the oracle the serving convs are tested bitwise against",
	"kernels.GemmNNStable":       "untraced GemmNNStableTraced: the oracle the row-stability tests compare against",
	"nn.SaveState":               "writes the checkpoint file that cmd/serve -checkpoint loads",
	"nn.SegMicroBatchStep":       "baseline of the micro-batch memory/time trade-off (ROADMAP item 6(c))",
	"obs.ClassNone":              "value of the exported obs.Class enum",
	"serve.PredictResponse":      "HTTP wire type of /v1/predict, for clients decoding the response",
	"serve.PriorityNormal":       "value of the exported serve.Priority enum",
}

// TestNoUnusedExports fails when an exported package-level func, type, var or
// const under internal/ has no reference from non-test code in internal/,
// cmd/, examples/ or benchmark/. Another package references it as pkg.Name;
// its own package references it by a bare identifier outside its own
// declaration (a type's methods count as part of its declaration). Exported
// methods and struct fields are not checked. The benchmark module is in the
// walk, so everything it pins counts as used.
func TestNoUnusedExports(t *testing.T) {
	fset := token.NewFileSet()
	type export struct{ pkg, name string }
	declared := map[export]string{} // -> "file:line"
	used := map[export]bool{}
	for _, root := range []string{"internal", "cmd", "examples", "benchmark"} {
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			dir := "repro/" + filepath.ToSlash(filepath.Dir(p))
			imports := map[string]string{} // local name -> import path
			for _, im := range f.Imports {
				ip, _ := strconv.Unquote(im.Path.Value)
				name := path.Base(ip)
				if im.Name != nil {
					name = im.Name.Name
				}
				imports[name] = ip
			}
			for _, decl := range f.Decls {
				for _, unit := range declUnits(decl) {
					for _, id := range unit.declares {
						if strings.HasPrefix(p, "internal"+string(filepath.Separator)) && id.IsExported() {
							declared[export{dir, id.Name}] = fset.Position(id.Pos()).String()
						}
					}
					skip := map[*ast.Ident]bool{}
					if fd, ok := unit.node.(*ast.FuncDecl); ok {
						skip[fd.Name] = true // the func or method name declares, it does not use
					}
					ast.Inspect(unit.node, func(n ast.Node) bool {
						switch n := n.(type) {
						case *ast.SelectorExpr:
							if x, ok := n.X.(*ast.Ident); ok {
								if ip, ok := imports[x.Name]; ok {
									used[export{ip, n.Sel.Name}] = true
									return false
								}
							}
							skip[n.Sel] = true // field or method, not a package-level name
						case *ast.Field:
							for _, id := range n.Names {
								skip[id] = true
							}
						case *ast.Ident:
							if !skip[n] && n.IsExported() && !slices.ContainsFunc(unit.names, func(d *ast.Ident) bool { return d.Name == n.Name }) {
								used[export{dir, n.Name}] = true
							}
						}
						return true
					})
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	var unused, stale []string
	for e, pos := range declared {
		key := path.Base(e.pkg) + "." + e.name
		_, allowed := unusedExportAllowlist[key]
		if !used[e] && !allowed {
			unused = append(unused, key+" ("+pos+")")
		}
		if used[e] && allowed {
			stale = append(stale, key+" has a caller now; drop it from the allowlist")
		}
	}
	for key := range unusedExportAllowlist {
		pkg, name, _ := strings.Cut(key, ".")
		if _, ok := declared[export{"repro/internal/" + pkg, name}]; !ok {
			stale = append(stale, key+" is not declared under internal/; drop it from the allowlist")
		}
	}
	slices.Sort(unused)
	slices.Sort(stale)
	if len(unused) > 0 {
		t.Errorf("exports with no non-test reference (delete them, move them into a _test.go file, or allowlist them with a reason):\n\t%s",
			strings.Join(unused, "\n\t"))
	}
	if len(stale) > 0 {
		t.Errorf("stale allowlist entries:\n\t%s", strings.Join(stale, "\n\t"))
	}
}

// declUnit is one top-level declaration scope: the names it declares and the
// syntax in which a use of one of those names is a self-reference.
type declUnit struct {
	declares []*ast.Ident // package-level names it introduces
	names    []*ast.Ident // names whose use inside node is a self-reference
	node     ast.Node
}

// declUnits splits a top-level declaration into units: one per func, one per
// spec of a grouped declaration. A method is a unit of its receiver type, so
// a type is not kept alive by its own methods.
func declUnits(decl ast.Decl) []declUnit {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil {
			return []declUnit{{[]*ast.Ident{d.Name}, []*ast.Ident{d.Name}, d}}
		}
		recv := d.Recv.List[0].Type
		if star, ok := recv.(*ast.StarExpr); ok {
			recv = star.X
		}
		if idx, ok := recv.(*ast.IndexExpr); ok {
			recv = idx.X
		}
		var names []*ast.Ident
		if id, ok := recv.(*ast.Ident); ok {
			names = []*ast.Ident{id}
		}
		return []declUnit{{nil, names, d}}
	case *ast.GenDecl:
		var units []declUnit
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				units = append(units, declUnit{[]*ast.Ident{s.Name}, []*ast.Ident{s.Name}, s})
			case *ast.ValueSpec:
				units = append(units, declUnit{s.Names, s.Names, s})
			}
		}
		return units
	}
	return nil
}
