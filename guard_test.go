package dcpibench

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestSourceGuards walks every Go file in the tree (this module and bench/)
// and fails on the shapes earlier PRs deleted so that one mechanism does each
// job. Each rule names the one place the job is done now.
func TestSourceGuards(t *testing.T) {
	type file struct {
		path   string // slash-separated, relative to the repository root
		isTest bool
	}
	in := func(f file, dirs ...string) bool {
		for _, d := range dirs {
			if strings.HasPrefix(f.path, d+"/") {
				return true
			}
		}
		return false
	}
	rules := []struct {
		pattern *regexp.Regexp
		applies func(file) bool
		message string
	}{
		{
			// Every binary format encodes and decodes through internal/wire,
			// whose Dec bounds each count by the bytes that remain.
			regexp.MustCompile(`binary\.((Read|Put|Append)(Uv|V)arint|Uvarint|Varint)\b`),
			func(f file) bool { return !f.isTest && !in(f, "internal/wire") },
			"varint calls outside internal/wire: use wire.Enc / wire.Dec",
		},
		{
			// A raw segment decodes into the one-epoch block of its batch, so
			// everything below the codecs reads blocks: no row-wise shape.
			regexp.MustCompile(`\.seg\b|segment\{|type segment\b|sourceFromBatch`),
			func(f file) bool { return !f.isTest && in(f, "internal/tsdb") },
			"internal/tsdb: a second in-memory shape beside block: build raw segments with blockFromBatch",
		},
		{
			// internal/cli declares the shared flags once and owns what each
			// starts and what is written on the way to os.Exit. (bench/ is the
			// benchmark's own module; its -trace-out is the harness's.)
			regexp.MustCompile(`"(cpuprofile|memprofile|metrics-out|stats-out|trace-out|cache-dir|cache-max-mb)"`),
			func(f file) bool { return !f.isTest && !in(f, "internal/cli", "bench") },
			"shared flag declared outside internal/cli: register its group with cli.App",
		},
		{
			// Test files too. The quotes are classes so that this line is not
			// a match.
			regexp.MustCompile(`["]simcpus["]`),
			func(file) bool { return true },
			"-simcpus is gone: simulated CPUs fan out over the free worker budget",
		},
		{
			// A finished run leaves a process as a run-cache entry and nothing
			// else: no shard archive, its flags, or the runner tier that read it.
			regexp.MustCompile(`DCPISHRD|merge-shards|shard-out|ShardSink|\.Preload`),
			func(f file) bool { return !f.isTest },
			"a shard's results are cache entries: write them with -shard i/N -cache-dir, read them with the plain command",
		},
		{
			// Test files too: the hash table the sweep measures is the one
			// that ships. The classes keep this line from matching.
			regexp.MustCompile(`[h]tsim|[S]imulateTrace|[H]TConfig|[H]TStats|[N]ewHTSim`),
			func(file) bool { return true },
			"§5.4 design points are driver.Config values: replay through driver.New(...).Record",
		},
		{
			// The fleet demo's ground truth is one checker that reads each
			// sealed epoch of each machine's database once.
			regexp.MustCompile(`"dcpi/internal/profiledb"|\bprofiledb\.`),
			func(f file) bool { return !f.isTest && in(f, "cmd/dcpicollect") },
			"cmd/dcpicollect reads no profile database: ground truth is fleet.(*Fleet).Check",
		},
		{
			// Epochs are dense from 1 because nothing in profiledb removes
			// one; /epochs?after=N probes upward on that invariant.
			regexp.MustCompile(`os\.RemoveAll\(|os\.Remove\([^)]*[Ee]poch`),
			func(f file) bool { return !f.isTest && in(f, "internal/profiledb") },
			"internal/profiledb removes no epoch directory: EpochsAfter relies on epochs being dense from 1",
		},
		{
			// A query reads its series in scan order off the series index:
			// no per-source label summaries, no per-query sort.
			regexp.MustCompile(`\b(byImage|matchesSource|chunkLess)\b`),
			func(f file) bool { return !f.isTest && in(f, "internal/tsdb") },
			"internal/tsdb: queries plan over the series index (db.series, one label-ordered entry per label set): no posting lists by image, source summaries or chunk sort",
		},
		{
			// An aggregator reads a series' columns in place: a scan hands
			// it one series range per part, never a copied point.
			regexp.MustCompile(`func\((w|win|p|part) int, \w+ Point\)`),
			func(f file) bool { return !f.isTest && in(f, "internal/tsdb") },
			"internal/tsdb: a scan hands fn(part, bs, j0, j1), a series' column range in one part; only Select materializes points (bs.point)",
		},
		{
			// A block has one layout: every point at full fidelity, no
			// per-N-epoch aggregates or the flags that asked for them. And
			// no instruction reads timing, so a program's function does not
			// depend on the machine it is timed on.
			regexp.MustCompile(`downsampleBlock|bucketMeta|RawRetention|raw-retention|"downsample"|ReadCounter|OpRPCC`),
			func(f file) bool { return !f.isTest && !in(f, "bench") },
			"one block layout (raw fidelity; a downsampled block is quarantined on open) and no cycle-counter read: no downsampling, its flags, or rpcc",
		},
		{
			// A count of samples becomes a count of events through one mean
			// period, and a zero period spec means one default. (bench/ is
			// the benchmark's own module.)
			regexp.MustCompile(`Spread\)?\s*/\s*2\b|\bDefault(Cycles|Event)Period\b`),
			func(f file) bool { return !f.isTest && !in(f, "internal/sim", "bench") },
			"a second period model: a period's mean is sim.PeriodSpec.Mean, and sim.ProfileConfig.WithDefaults resolves a zero spec to its default",
		},
		{
			// A period read back from a store or a database's metadata is
			// valid by one rule.
			regexp.MustCompile(`math\.IsInf\(\w+, 0\).*<\s*0\b|<\s*0\b.*math\.IsInf\(\w+, 0\)`),
			func(f file) bool { return !f.isTest && !in(f, "internal/sim", "bench") },
			"a second period validity rule: a stored or recorded period is checked by sim.CheckPeriod",
		},
		{
			// The accuracy suite's dense periods have one home.
			regexp.MustCompile(`\{Base: (768|384)\b`),
			func(f file) bool { return !f.isTest && !in(f, "internal/sim", "bench") },
			"dense periods written out: use sim.DenseCyclesPeriod and sim.DenseEventPeriod",
		},
		{
			// Test files too: a database's recorded means are numbers, never a
			// spec made up to have them. The class keeps this line from matching.
			regexp.MustCompile(`\b[m]eanPeriod\b`),
			func(f file) bool { return !in(f, "bench") },
			"an offline Result carries the recorded means as numbers (Result.recorded): no period spec is made up from a mean",
		},
		{
			// The edge-sample key is packed and unpacked beside each other.
			regexp.MustCompile(`\bkey\s*>>\s*32\b|&\s*0xffffffff\b`),
			func(f file) bool { return !f.isTest && !in(f, "internal/daemon", "bench") },
			"hand-decoded edge key: use daemon.UnpackEdge (analysis reads decoded analysis.EdgePair keys)",
		},
		{
			// Work spreads over goroutines through one pool. (bench/ is the
			// benchmark's own module and keeps its harness.)
			regexp.MustCompile(`sync\.WaitGroup`),
			func(f file) bool { return !f.isTest && in(f, "cmd", "internal") && !in(f, "internal/par") },
			"hand-rolled fan-out: spread work with par.Do, or par.Default().Each (Budget.Each) when it is CPU-bound",
		},
	}

	files := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		files++
		f := file{path: filepath.ToSlash(path), isTest: strings.HasSuffix(path, "_test.go")}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		lines := strings.Split(string(src), "\n")
		for _, r := range rules {
			if !r.applies(f) {
				continue
			}
			for n, line := range lines {
				if r.pattern.MatchString(line) {
					t.Errorf("%s:%d: %s\n\t%s", f.path, n+1, strings.TrimSpace(line), r.message)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 100 {
		t.Fatalf("walked %d Go files: this test must run at the repository root", files)
	}
}

// keptAPI lists the exported functions and methods of internal/ that no
// program file calls and that stay all the same, one reason each. Every other
// such name fails TestNoTestOnlyAPI. Keys are types.Func.FullName.
var keptAPI = map[string]string{
	// Paper mechanisms the tools do not reach yet.
	"(*dcpi/internal/profiledb.Profile).WriteCompressed": "§4.3.3's compressed on-disk profile (DESIGN.md §5); its tests measure the saving",
	"(*dcpi/internal/loader.Loader).Scan":                "§4.3.2's daemon startup scan of the live processes' mappings",
	// Windows through which tests observe state the program only uses.
	"(*dcpi/internal/mem.Sparse).Pages":     "tests check that a served result holds no process memory",
	"(*dcpi/internal/mem.Sparse).ReadBytes": "tests compare what the timed and the functional run stored",
	"(*dcpi/internal/mem.TLB).Capacity":     "tests check the TLB size a hardware config built",
	"(*dcpi/internal/mem.TLB).Len":          "tests hold the resident count to the reference model",
	"(*dcpi/internal/mem.WriteBuffer).Len":  "tests observe the entries not yet retired",
	"(*dcpi/internal/mem.Cache).Config":     "tests check the geometry a hardware config built",
	"(*dcpi/internal/sim.Machine).SpawnOn":  "tests pin a process to one CPU",
	"(*dcpi/internal/par.Budget).Used":      "tests observe the worker budget's reserved slots",
	"(*dcpi/internal/obs.Tracer).Dropped":   "tests observe the events a full tracer dropped",
	"dcpi/internal/alpha.LookupOp":          "tests read the assembler's mnemonic table",
}

// stdInterfaces are the standard-library interfaces through which fmt,
// errors, encoding, net/http, io, sort, container/heap and flag call methods
// of this tree's types; no reference in the tree shows those calls.
var stdInterfaces = []string{
	"fmt.Stringer", "fmt.GoStringer", "fmt.Formatter",
	"encoding.TextMarshaler", "encoding.TextUnmarshaler", "encoding.BinaryMarshaler", "encoding.BinaryUnmarshaler",
	"encoding/json.Marshaler", "encoding/json.Unmarshaler", "net/http.Handler",
	"io.Reader", "io.Writer", "io.Closer", "io.WriterTo", "io.ReaderFrom",
	"sort.Interface", "container/heap.Interface", "flag.Value",
}

// TestNoTestOnlyAPI type-checks every non-test Go file under cmd/, internal/,
// examples/ and bench/, and fails on an exported function or method of
// internal/ that none of them references: code that only its own tests call
// is surface to read and keep correct that the program does not use. A
// method counts as referenced when its type implements an interface whose
// method of that name the program calls, or a standard-library interface
// that declares it (String for fmt, Error for errors, ServeHTTP for
// net/http, ...). Delete such a function with the tests that check only it,
// or give it a line in keptAPI.
func TestNoTestOnlyAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the tree")
	}
	var dirs []string
	for _, root := range []string{"cmd", "internal", "examples", "bench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			dirs = append(dirs, filepath.ToSlash(path))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	c := newSourceChecker(t, dirs)

	// Exported functions and methods declared under internal/, every
	// function the program uses, and the interface methods among them.
	declared := map[*types.Func]token.Position{}
	used := map[*types.Func]bool{}
	var ifaceMethods []*types.Func
	for _, dir := range dirs {
		pkg := c.check(dir)
		if pkg == nil {
			continue
		}
		if strings.HasPrefix(dir, "internal/") {
			for _, f := range pkg.files {
				for _, decl := range f.Decls {
					if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.IsExported() {
						declared[pkg.info.Defs[fd.Name].(*types.Func)] = c.fset.Position(fd.Pos())
					}
				}
			}
		}
		for _, obj := range pkg.info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				fn = fn.Origin()
				used[fn] = true
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					ifaceMethods = append(ifaceMethods, fn)
				}
			}
		}
	}
	if len(declared) < 300 {
		t.Fatalf("found %d exported functions under internal/: this test must run at the repository root", len(declared))
	}
	for _, name := range stdInterfaces {
		dot := strings.LastIndex(name, ".")
		pkg, err := c.Import(name[:dot])
		if err != nil {
			t.Fatal(err)
		}
		iface := pkg.Scope().Lookup(name[dot+1:]).Type().Underlying().(*types.Interface)
		for i := 0; i < iface.NumMethods(); i++ {
			ifaceMethods = append(ifaceMethods, iface.Method(i))
		}
	}
	ifaceMethods = append(ifaceMethods, types.Universe.Lookup("error").Type().Underlying().(*types.Interface).Method(0))
	throughInterface := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return false
		}
		for _, m := range ifaceMethods {
			iface := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			if m.Name() == fn.Name() && (types.Implements(recv.Type(), iface) || types.Implements(types.NewPointer(recv.Type()), iface)) {
				return true
			}
		}
		return false
	}

	kept := map[string]bool{}
	var dead []string
	for fn, pos := range declared {
		name := fn.FullName()
		if _, ok := keptAPI[name]; ok {
			kept[name] = true
			if used[fn] {
				t.Errorf("keptAPI lists %s, which the program now calls: drop its line", name)
			}
			continue
		}
		if !used[fn] && !throughInterface(fn) {
			dead = append(dead, fmt.Sprintf("%s:%d: %s", pos.Filename, pos.Line, name))
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s has no caller outside _test.go files: delete it with the tests that check only it, or list it in keptAPI with the reason", d)
	}
	for name := range keptAPI {
		if !kept[name] {
			t.Errorf("keptAPI lists %s, which no longer exists: drop its line", name)
		}
	}
}

// sourceChecker type-checks the module's packages from source, each once, so
// that a package's objects are the same wherever they are used; the standard
// library comes from the export data the go command builds for it.
type sourceChecker struct {
	t     *testing.T
	fset  *token.FileSet
	build map[string]*build.Package // by directory, relative to the root
	pkgs  map[string]*checkedPkg    // by directory; nil when it has no Go files
	std   types.Importer
}

type checkedPkg struct {
	files []*ast.File
	info  *types.Info
	types *types.Package
}

func newSourceChecker(t *testing.T, dirs []string) *sourceChecker {
	c := &sourceChecker{t: t, fset: token.NewFileSet(), build: map[string]*build.Package{}, pkgs: map[string]*checkedPkg{}}
	std := map[string]bool{}
	for _, name := range stdInterfaces {
		std[name[:strings.LastIndex(name, ".")]] = true
	}
	for _, dir := range dirs {
		bp, err := build.ImportDir(dir, 0)
		if err != nil {
			if _, none := err.(*build.NoGoError); none {
				continue
			}
			t.Fatalf("%s: %v", dir, err)
		}
		c.build[dir] = bp
		for _, path := range bp.Imports {
			if !strings.HasPrefix(path, "dcpi/") {
				std[path] = true
			}
		}
	}
	args := []string{"list", "-export", "-f", "{{.ImportPath}}={{.Export}}"}
	for path := range std {
		args = append(args, path)
	}
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		t.Fatalf("go list -export: %v", err)
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, file, ok := strings.Cut(line, "="); ok {
			exports[path] = file
		}
	}
	c.std = importer.ForCompiler(c.fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	return c
}

// Import resolves an import path of the module (dcpi/..., bench/ included as
// dcpi/bench/...) to its directory, and any other to the standard library.
func (c *sourceChecker) Import(path string) (*types.Package, error) {
	if dir, ok := strings.CutPrefix(path, "dcpi/"); ok {
		if pkg := c.check(dir); pkg != nil {
			return pkg.types, nil
		}
		return nil, fmt.Errorf("no Go files for %q", path)
	}
	return c.std.Import(path)
}

// check type-checks the non-test files of dir once.
func (c *sourceChecker) check(dir string) *checkedPkg {
	if pkg, ok := c.pkgs[dir]; ok {
		return pkg
	}
	c.pkgs[dir] = nil
	bp := c.build[dir]
	if bp == nil {
		return nil
	}
	pkg := &checkedPkg{info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(c.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			c.t.Fatal(err)
		}
		pkg.files = append(pkg.files, f)
	}
	conf := types.Config{Importer: c}
	var err error
	if pkg.types, err = conf.Check("dcpi/"+dir, c.fset, pkg.files, pkg.info); err != nil {
		c.t.Fatalf("type-check %s: %v", dir, err)
	}
	c.pkgs[dir] = pkg
	return pkg
}
