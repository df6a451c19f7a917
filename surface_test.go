package flexgraph

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// namingAliases are the exports no caller spells out but that are needed to
// *name* what the called functions take and return — a variable, field or
// parameter of that type in user code. Keep it short: a function, a
// constructor or a constant block does not belong here; it earns its place
// with a caller under examples/, cmd/ or in a README code block.
var namingAliases = map[string]string{
	"Trainer":                 "NewTrainerWith returns it",
	"Tensor":                  "Dataset.Features, TrainerOptions.Features, Trainer.Predict",
	"HDG":                     "LayerContext.HDG",
	"Engine":                  "NewEngine returns it; TrainerOptions.Engine, ServeOptions.Engine",
	"StageBreakdown":          "Trainer.Breakdown, ClusterResult.Merged",
	"ClusterResult":           "TrainDistributed returns it",
	"ModelFactory":            "TrainDistributed takes it",
	"ClusterCheckpointConfig": "ClusterConfig.Checkpoint",
	"TelemetryConfig":         "ClusterConfig.Telemetry",
	"Metapath":                "NewMAGNN takes a slice of them (Dataset.Metapaths)",
	"CachePolicy":             "Model.Cache",
	"CacheForever":            "the other value of Model.Cache (CachePerEpoch is the zero value)",
	"MetricHistogram":         "SetGrainHistogram takes it",
	"FlightDump":              "ReadFlightFile returns it",
	"InferenceServer":         "NewInferenceServer returns it",
	"ServeResult":             "ServeReply.Results",
	"Router":                  "NewRouter returns it",
}

// TestEveryExportHasACaller holds the facade to its rule: an exported name
// stays when something outside the package's own tests calls it. Every
// exported identifier declared in flexgraph.go / serving.go must appear as
// flexgraph.<Name> in a Go file under examples/ or cmd/, or in a Go code
// block of README.md — or be one of the naming aliases above.
func TestEveryExportHasACaller(t *testing.T) {
	exported := map[string]bool{}
	fset := token.NewFileSet()
	for _, name := range []string{"flexgraph.go", "serving.go"} {
		file, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					exported[d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							exported[s.Name.Name] = true
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								exported[n.Name] = true
							}
						}
					}
				}
			}
		}
	}

	ref := regexp.MustCompile(`\bflexgraph\.([A-Z][A-Za-z0-9_]*)`)
	called := map[string]bool{}
	scan := func(text string) {
		for _, m := range ref.FindAllStringSubmatch(text, -1) {
			called[m[1]] = true
		}
	}
	for _, root := range []string{"examples", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			scan(string(src))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	fence := "" // the line that opened the code block we are in
	for _, line := range strings.Split(string(readme), "\n") {
		switch trimmed := strings.TrimSpace(line); {
		case fence == "" && strings.HasPrefix(trimmed, "```"):
			fence = trimmed
		case trimmed == "```":
			fence = ""
		case fence == "```go":
			scan(line)
		}
	}

	var orphans, staleAliases []string
	for name := range exported {
		if _, alias := namingAliases[name]; !called[name] && !alias {
			orphans = append(orphans, name)
		}
	}
	for name := range namingAliases {
		if !exported[name] {
			staleAliases = append(staleAliases, name)
		}
	}
	sort.Strings(orphans)
	sort.Strings(staleAliases)
	if len(orphans) > 0 {
		t.Errorf("%d exported names have no caller under examples/, cmd/ or a README Go block "+
			"(delete them, or call the internal package from inside this module): %v", len(orphans), orphans)
	}
	if len(staleAliases) > 0 {
		t.Errorf("namingAliases lists names the package no longer exports: %v", staleAliases)
	}
	t.Logf("%d exports, %d called, %d naming aliases", len(exported), len(called), len(namingAliases))
}
