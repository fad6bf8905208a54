package bvq

// The surface gate: an exported name of internal/... that no non-test file
// references is either deleted or listed in testdata/surface_allow.txt with
// the reason a test keeps it, and a flag of bvqd, bvqrouter or bvqload is either set
// by a script, the Makefile, an example or the benchmark, or listed in
// testdata/flags_allow.txt with the two deployments that set it differently.
// Both lists fail on a stale line, so neither grows past what the tree needs.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/server"
)

// TestSurface fails on an unreferenced exported name of internal/... that
// testdata/surface_allow.txt does not list, and on a line of that file that
// names a referenced or a missing name.
func TestSurface(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and bench/")
	}
	unref, err := scanSurface(".", "bench")
	if err != nil {
		t.Fatal(err)
	}
	allow, err := readAllowlist("testdata/surface_allow.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range unref {
		if _, ok := allow[name]; !ok {
			t.Errorf("%s: exported, but no non-test file references it: delete it, or list it in testdata/surface_allow.txt as oracle, paper or fixture", name)
		}
		delete(allow, name)
	}
	for _, name := range sortedKeys(allow) {
		t.Errorf("testdata/surface_allow.txt:%d: stale line: %s is referenced outside tests, or no longer exists", allow[name], name)
	}
}

// TestSurfaceScanner runs the scanner over a fixture module: an export used
// only from a test file and a method whose name collides with a used method
// of another type are reported; a String method, which satisfies
// fmt.Stringer, is not.
func TestSurfaceScanner(t *testing.T) {
	got, err := scanSurface(filepath.Join("testdata", "surfacefix"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"lib.Cold.Size", "lib.TestOnly"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("unreferenced = %q, want %q", got, want)
	}
}

// TestOneGoroutinePerEvaluation fails on a go statement, and on an import of
// sync or sync/atomic, in a non-test file of internal/eval or internal/plan:
// an evaluation runs on its caller's goroutine, so nothing inside one run is
// shared between goroutines. nodestore.go is exempt, for the node store is
// shared across evaluations; internal/eval/eso is a package of its own.
func TestOneGoroutinePerEvaluation(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range []string{"internal/eval", "internal/plan"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") || path == filepath.Join("internal", "eval", "nodestore.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == "sync" || p == "sync/atomic" {
					t.Errorf("%s: imports %s", fset.Position(imp.Pos()), p)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					t.Errorf("%s: go statement", fset.Position(g.Pos()))
				}
				return true
			})
		}
	}
}

// readAllowlist reads testdata/surface_allow.txt: one name a line, then the
// kind of reason (oracle: a reference a test compares against; paper: a
// construction of the paper a test checks, with its section; fixture: a test
// helper that tests in more than one package use) and the reason itself.
// Blank lines and lines starting with # are comments. It returns each name
// with its line number.
func readAllowlist(path string) (map[string]int, error) {
	text, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	section := regexp.MustCompile(`(§|Thm|Lemma|Prop|Cor|Def)\s*\d`)
	out := map[string]int{}
	for i, line := range strings.Split(string(text), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			return nil, fmt.Errorf("%s:%d: want a name, a kind and a reason", path, i+1)
		}
		name, kind, reason := fields[0], fields[1], strings.Join(fields[2:], " ")
		switch kind {
		case "oracle", "fixture":
		case "paper":
			if !section.MatchString(reason) {
				return nil, fmt.Errorf("%s:%d: a paper reason names its section (§, Thm, …)", path, i+1)
			}
		default:
			return nil, fmt.Errorf("%s:%d: kind %q is not oracle, paper or fixture", path, i+1, kind)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("%s:%d: %s listed twice", path, i+1, name)
		}
		out[name] = i + 1
	}
	return out, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// listedPackage is the part of `go list -json` the scanner reads.
type listedPackage struct {
	ImportPath, Dir string
	GoFiles         []string
	Standard        bool
	Module          *struct{ Path string }
}

// goList lists the packages of the module in dir and their dependencies,
// dependencies first.
func goList(dir string) ([]listedPackage, error) {
	cmd := exec.Command("go", "list", "-deps", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v: %s", dir, err, stderr.Bytes())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
}

// surfaceChecker type-checks module packages from source and the standard
// library from export data, into one types.Info.
type surfaceChecker struct {
	fset    *token.FileSet
	std     types.Importer
	checked map[string]*types.Package
	info    *types.Info
	files   []*ast.File
}

func (c *surfaceChecker) Import(path string) (*types.Package, error) {
	if p, ok := c.checked[path]; ok {
		return p, nil
	}
	return c.std.Import(path)
}

func (c *surfaceChecker) check(p listedPackage) error {
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(c.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: c}
	pkg, err := conf.Check(p.ImportPath, c.fset, files, c.info)
	if err != nil {
		return fmt.Errorf("type-checking %s: %v", p.ImportPath, err)
	}
	c.checked[p.ImportPath] = pkg
	c.files = append(c.files, files...)
	return nil
}

// scanSurface type-checks the non-test files of the modules in dirs (a later
// module may import an earlier one; every one of them counts as a caller) and
// returns the exported top-level funcs, types, consts and vars, and the
// exported methods, of the first module's internal/... packages that no
// non-test file references, as "pkg.Name" or "pkg.Type.Method" with pkg the
// path below internal/. A use inside the name's own declaration, or in a
// method's receiver, is not a reference. A method is referenced when it
// implements a method of a named interface the modules declare, or of error,
// fmt.Stringer, io.Reader, io.Writer, io.Closer, http.ResponseWriter,
// http.Flusher, http.Handler or sort.Interface, or when its type is the type
// argument of a generic whose constraint asks for the method.
func scanSurface(dirs ...string) ([]string, error) {
	c := &surfaceChecker{
		fset:    token.NewFileSet(),
		std:     importer.Default(),
		checked: map[string]*types.Package{},
		info: &types.Info{
			Defs:      map[*ast.Ident]types.Object{},
			Uses:      map[*ast.Ident]types.Object{},
			Instances: map[*ast.Ident]types.Instance{},
		},
	}
	var internal string
	for i, dir := range dirs {
		pkgs, err := goList(dir)
		if err != nil {
			return nil, err
		}
		for _, p := range pkgs {
			if p.Standard || c.checked[p.ImportPath] != nil {
				continue
			}
			if i == 0 && internal == "" && p.Module != nil {
				internal = p.Module.Path + "/internal/"
			}
			if err := c.check(p); err != nil {
				return nil, err
			}
		}
	}

	// The candidates: exported names of internal/... packages.
	names := map[types.Object]string{}
	var concrete []*types.Named
	for path, pkg := range c.checked {
		if !strings.HasPrefix(path, internal) {
			continue
		}
		rel := strings.TrimPrefix(path, internal)
		scope := pkg.Scope()
		for _, n := range scope.Names() {
			obj := scope.Lookup(n)
			if obj.Exported() {
				names[obj] = rel + "." + n
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					names[m] = rel + "." + n + "." + m.Name()
				}
			}
			if _, isIface := named.Underlying().(*types.Interface); !isIface && named.TypeParams() == nil {
				concrete = append(concrete, named)
			}
		}
	}

	// Uses that do not count: inside the object's own declaration, and in
	// method receivers.
	own := map[types.Object]ast.Node{}
	inReceiver := map[*ast.Ident]bool{}
	for _, f := range c.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				own[c.info.Defs[d.Name]] = d
				if d.Recv != nil {
					ast.Inspect(d.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							inReceiver[id] = true
						}
						return true
					})
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						own[c.info.Defs[s.Name]] = s
					case *ast.ValueSpec:
						for _, n := range s.Names {
							own[c.info.Defs[n]] = s
						}
					}
				}
			}
		}
	}
	referenced := map[types.Object]bool{}
	for id, obj := range c.info.Uses {
		obj = origin(obj)
		if _, ok := names[obj]; !ok || inReceiver[id] {
			continue
		}
		if d := own[obj]; d == nil || id.Pos() < d.Pos() || id.Pos() >= d.End() {
			referenced[obj] = true
		}
	}

	// Methods that implement an interface.
	var ifaces []*types.Interface
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() {
			ifaces = append(ifaces, it)
		}
	}
	for _, pkg := range c.checked {
		for _, n := range pkg.Scope().Names() {
			if named, ok := pkg.Scope().Lookup(n).Type().(*types.Named); ok && named.TypeParams() == nil {
				addIface(named)
			}
		}
	}
	for _, inst := range c.info.Instances {
		if named, ok := inst.Type.(*types.Named); ok {
			addIface(named)
			if _, isIface := named.Underlying().(*types.Interface); !isIface && strings.HasPrefix(named.Obj().Pkg().Path(), internal) {
				concrete = append(concrete, named)
			}
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	for _, name := range []string{"fmt.Stringer", "io.Reader", "io.Writer", "io.Closer", "net/http.ResponseWriter", "net/http.Flusher", "net/http.Handler", "sort.Interface"} {
		i := strings.LastIndex(name, ".")
		pkg, err := c.Import(name[:i])
		if err != nil {
			return nil, err
		}
		addIface(pkg.Scope().Lookup(name[i+1:]).Type())
	}
	for _, named := range concrete {
		for _, recv := range []types.Type{named, types.NewPointer(named)} {
			for _, it := range ifaces {
				if !types.Implements(recv, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					obj, _, _ := types.LookupFieldOrMethod(recv, true, it.Method(i).Pkg(), it.Method(i).Name())
					if obj != nil {
						referenced[origin(obj)] = true
					}
				}
			}
		}
	}

	// Methods a type argument supplies for its parameter's constraint.
	for id, inst := range c.info.Instances {
		var tparams *types.TypeParamList
		switch obj := origin(c.info.Uses[id]).(type) {
		case *types.Func:
			tparams = obj.Type().(*types.Signature).TypeParams()
		case *types.TypeName:
			if named, ok := obj.Type().(*types.Named); ok {
				tparams = named.TypeParams()
			}
		}
		for i := 0; tparams != nil && i < tparams.Len(); i++ {
			it := tparams.At(i).Constraint().Underlying().(*types.Interface)
			for j := 0; j < it.NumMethods(); j++ {
				obj, _, _ := types.LookupFieldOrMethod(inst.TypeArgs.At(i), true, it.Method(j).Pkg(), it.Method(j).Name())
				if obj != nil {
					referenced[origin(obj)] = true
				}
			}
		}
	}

	var unref []string
	for obj, name := range names {
		if !referenced[obj] {
			unref = append(unref, name)
		}
	}
	sort.Strings(unref)
	return unref, nil
}

// origin maps a member of an instantiated generic type to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// gatedCommands are the commands whose flags the flag gate covers.
var gatedCommands = []string{"bvqd", "bvqrouter", "bvqload"}

// flagDefiners are the functions of the flag package, and the methods of
// *flag.FlagSet, that define a flag. The name is their first argument, or
// their second for the *Var forms, which take the destination first.
var flagDefiners = map[string]bool{
	"Bool": true, "BoolFunc": true, "BoolVar": true, "Duration": true, "DurationVar": true,
	"Float64": true, "Float64Var": true, "Func": true, "Int": true, "Int64": true,
	"Int64Var": true, "IntVar": true, "String": true, "StringVar": true, "TextVar": true,
	"Uint": true, "Uint64": true, "Uint64Var": true, "UintVar": true, "Var": true,
}

// definedFlags returns the names of the flags cmd/<command>/main.go defines
// through the flag package or a *flag.FlagSet it makes with flag.NewFlagSet.
func definedFlags(command string) ([]string, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filepath.Join("cmd", command, "main.go"), nil, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	isFlag := func(x ast.Expr, name string) bool {
		sel, ok := x.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		pkg, ok := sel.X.(*ast.Ident)
		return ok && pkg.Name == "flag" && sel.Sel.Name == name
	}
	sets := map[string]bool{"flag": true} // the package, then every name a FlagSet is assigned to
	ast.Inspect(f, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
			for i, rhs := range as.Rhs {
				call, isCall := rhs.(*ast.CallExpr)
				if id, isIdent := as.Lhs[i].(*ast.Ident); isCall && isIdent && isFlag(call.Fun, "NewFlagSet") {
					sets[id.Name] = true
				}
			}
		}
		return true
	})
	var flags []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || len(call.Args) < 2 || !flagDefiners[sel.Sel.Name] {
			return true
		}
		if recv, ok := sel.X.(*ast.Ident); !ok || !sets[recv.Name] {
			return true
		}
		arg := call.Args[0]
		if strings.HasSuffix(sel.Sel.Name, "Var") {
			arg = call.Args[1]
		}
		if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			name, _ := strconv.Unquote(lit.Value)
			flags = append(flags, "-"+name)
		}
		return true
	})
	return flags, nil
}

// TestFlagsDeployed fails on a flag of bvqd, bvqrouter or bvqload that no script, the
// Makefile, no example and not the benchmark sets, unless
// testdata/flags_allow.txt names two deployments that need it; and on a line
// of that file for a flag that is set there or is not defined.
func TestFlagsDeployed(t *testing.T) {
	var callers bytes.Buffer
	for _, root := range []string{"scripts", "examples", "bench", "Makefile"} {
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if path == filepath.Join("bench", "out") { // what a benchmark run builds and writes
					return filepath.SkipDir
				}
				return nil
			}
			if strings.HasSuffix(path, "_test.go") || strings.HasSuffix(path, ".db") {
				return nil
			}
			text, err := os.ReadFile(path)
			callers.Write(text)
			callers.WriteByte('\n')
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	allow, err := readFlagAllowlist("testdata/flags_allow.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, cmd := range gatedCommands {
		flags, err := definedFlags(cmd)
		if err != nil {
			t.Fatal(err)
		}
		for _, flag := range flags {
			key := cmd + " " + flag
			set := regexp.MustCompile(`(^|[\s"'(])` + regexp.QuoteMeta(flag) + `([\s"'=]|$)`).Match(callers.Bytes())
			_, listed := allow[key]
			switch {
			case set && listed:
				t.Errorf("testdata/flags_allow.txt:%d: stale line: %s is set by a script, the Makefile, an example or bench/", allow[key], key)
			case !set && !listed:
				t.Errorf("%s: no script, Makefile target, example or bench/ sets it: delete it, or list it in testdata/flags_allow.txt with its two deployments", key)
			}
			delete(allow, key)
		}
	}
	for _, key := range sortedKeys(allow) {
		t.Errorf("testdata/flags_allow.txt:%d: stale line: %s is not defined", allow[key], key)
	}
}

// readFlagAllowlist reads testdata/flags_allow.txt: the command and the flag,
// then the two deployments that need different values, separated by a
// semicolon.
func readFlagAllowlist(path string) (map[string]int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]int{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 3 {
			return nil, fmt.Errorf("%s:%d: want a command, a flag and two deployments", path, line)
		}
		deployments := strings.Split(strings.Join(fields[2:], " "), ";")
		if len(deployments) != 2 || strings.TrimSpace(deployments[0]) == "" || strings.TrimSpace(deployments[1]) == "" {
			return nil, fmt.Errorf("%s:%d: name exactly two deployments, separated by a semicolon", path, line)
		}
		out[fields[0]+" "+fields[1]] = line
	}
	return out, sc.Err()
}

// TestFlagsDocumented fails unless every flag of bvqd, bvqrouter and bvqload has
// exactly one row in OPERATIONS.md's flag tables and every row names a
// defined flag.
func TestFlagsDocumented(t *testing.T) {
	text, err := os.ReadFile("OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	tables := map[string]string{"bvqd": "### Flags", "bvqrouter": "### Router flags", "bvqload": "### Load generation (`bvqload`)"}
	row := regexp.MustCompile("^\\| `(-[a-z-]+)[^`]*` \\|")
	for _, cmd := range gatedCommands {
		rows := map[string]int{}
		_, rest, ok := strings.Cut(string(text), "\n"+tables[cmd]+"\n")
		if !ok {
			t.Fatalf("OPERATIONS.md has no %q section", tables[cmd])
		}
		for _, line := range strings.Split(rest, "\n") {
			if strings.HasPrefix(line, "#") {
				break
			}
			if m := row.FindStringSubmatch(line); m != nil {
				rows[m[1]]++
			}
		}
		flags, err := definedFlags(cmd)
		if err != nil {
			t.Fatal(err)
		}
		for _, flag := range flags {
			if rows[flag] != 1 {
				t.Errorf("%s %s has %d rows in OPERATIONS.md's %q table, want 1", cmd, flag, rows[flag], tables[cmd])
			}
			delete(rows, flag)
		}
		for _, flag := range sortedKeys(rows) {
			t.Errorf("OPERATIONS.md's %q table has a row for %s, which %s does not define", tables[cmd], flag, cmd)
		}
	}
}

// TestRequestFieldsDocumented fails unless every top-level json field of the
// /query and /db/{name}/update request bodies has exactly one row in its
// endpoint's request table in OPERATIONS.md, and every row there names a
// field: a field the server decodes is documented, and a documented field is
// one the server decodes.
func TestRequestFieldsDocumented(t *testing.T) {
	text, err := os.ReadFile("OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile("^\\| `([a-z_]+)` \\|")
	for _, c := range []struct {
		section string
		body    any
	}{
		{"### `POST /query`", server.QueryRequest{}},
		{"### `POST /db/{name}/update`", server.UpdateRequest{}},
	} {
		_, rest, ok := strings.Cut(string(text), "\n"+c.section+"\n")
		if !ok {
			t.Fatalf("OPERATIONS.md has no %q section", c.section)
		}
		// The request table is the section's first table with a Type column.
		_, rest, ok = strings.Cut(rest, "\n| Field | Type | Meaning |\n")
		if !ok {
			t.Fatalf("OPERATIONS.md's %q section has no request table", c.section)
		}
		rows := map[string]int{}
		for _, line := range strings.Split(rest, "\n") {
			if !strings.HasPrefix(line, "|") {
				break
			}
			if m := row.FindStringSubmatch(line); m != nil {
				rows[m[1]]++
			}
		}
		typ := reflect.TypeOf(c.body)
		for i := 0; i < typ.NumField(); i++ {
			name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
			if rows[name] != 1 {
				t.Errorf("%s field %q has %d rows in OPERATIONS.md's %q request table, want 1", typ.Name(), name, rows[name], c.section)
			}
			delete(rows, name)
		}
		for _, name := range sortedKeys(rows) {
			t.Errorf("OPERATIONS.md's %q request table has a row for %q, which %s does not have", c.section, name, typ.Name())
		}
	}
}
