package sei

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyFuncs are the exported internal functions that only tests
// call, kept on purpose as reference oracles or fixtures. Each value
// names a test that uses the function.
var testOnlyFuncs = map[string]string{
	"sei/internal/homog.ExhaustiveBest":            "TestHomogenizeNearExhaustiveOnTinyInstance",
	"sei/internal/mnist.WriteIDX":                  "TestIDXRoundTrip",
	"sei/internal/nn.NewDeepNetwork":               "TestIncrementalSearchMatchesReferenceDeepNet",
	"sei/internal/quant.PaperSearchConfig":         "TestIncrementalSearchMatchesReference",
	"sei/internal/quant.SearchThresholdsReference": "TestIncrementalSearchMatchesReference",
	"sei/internal/rram.ProgramVerify":              "TestExpectedPulsesMatchesMonteCarlo",
	"sei/internal/tensor.EqualApprox":              "TestPoolThenThresholdEqualsORPool",
	"sei/internal/tensor.L2Distance":               "TestSyntheticClassesDistinct",
}

// TestInternalFuncsHaveCallers fails when an exported package-level
// function under internal/ is reached by no non-test file of the module
// (commands, examples, the facade and perfbench included): such a
// function is a capability only its own tests reach. A reference from
// inside another exported internal function counts only while that one
// is reached itself, so a dead helper of dead code is caught too. The
// scan is syntactic — a selector pkg.F through the package's import, or
// a bare F inside the package — so methods, which need type
// information, are out of scope and count as reached.
func TestInternalFuncsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	declared := map[string]token.Position{} // "importpath.Name" → declaration
	refs := map[string][]string{}           // referencing function ("" = always reached) → names it references
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "sei"
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkg += "/" + dir
		}
		imports := map[string]string{} // local name → import path
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = p
		}
		for _, decl := range f.Decls {
			owner := ""
			var self *ast.Ident
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				self = fn.Name
				if strings.HasPrefix(pkg, "sei/internal/") && fn.Name.IsExported() {
					owner = pkg + "." + fn.Name.Name
					declared[owner] = fset.Position(fn.Pos())
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok {
						if p, ok := imports[x.Name]; ok {
							refs[owner] = append(refs[owner], p+"."+n.Sel.Name)
							return false
						}
					}
				case *ast.Ident:
					if n != self {
						refs[owner] = append(refs[owner], pkg+"."+n.Name)
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	reached := map[string]bool{"": true}
	for queue := []string{""}; len(queue) > 0; queue = queue[1:] {
		for _, name := range refs[queue[0]] {
			if !reached[name] {
				reached[name] = true
				queue = append(queue, name)
			}
		}
	}
	var dead []string
	for name, pos := range declared {
		if !reached[name] && testOnlyFuncs[name] == "" {
			dead = append(dead, pos.String()+": "+name)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is reached by no non-test code; delete it, or add it to testOnlyFuncs naming the test that needs it", d)
	}
	for name := range testOnlyFuncs {
		if _, ok := declared[name]; !ok {
			t.Errorf("testOnlyFuncs lists %s, which is no longer declared", name)
		}
	}
}
