package leashedsgd_test

// Documentation link checker: every relative link and intra-doc anchor in
// README.md and docs/**/*.md must resolve. CI runs this in the docs job, so
// a renamed page, a moved heading or a typoed path fails the push instead
// of shipping a dead link.

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docFiles returns the markdown files under the doc surface: the README
// plus everything in docs/.
func docFiles(t *testing.T) []string {
	t.Helper()
	files := []string{"README.md"}
	matches, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatal("no markdown files under docs/")
	}
	files = append(files, matches...)
	return files
}

var mdLink = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// stripFenced removes fenced code blocks so example snippets cannot
// produce false link matches.
func stripFenced(src string) string {
	var out []string
	fenced := false
	for _, line := range strings.Split(src, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if !fenced {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// headingAnchors returns the GitHub-style anchor slugs of every ATX
// heading in a markdown source: lowercase, formatting markers dropped,
// punctuation removed, spaces to hyphens.
func headingAnchors(src string) map[string]bool {
	anchors := make(map[string]bool)
	clean := regexp.MustCompile("[^a-z0-9_\\- ]+")
	for _, line := range strings.Split(stripFenced(src), "\n") {
		trimmed := strings.TrimSpace(line)
		if !strings.HasPrefix(trimmed, "#") {
			continue
		}
		text := strings.TrimLeft(trimmed, "#")
		text = strings.TrimSpace(text)
		text = strings.ReplaceAll(text, "`", "")
		text = strings.ReplaceAll(text, "*", "")
		slug := clean.ReplaceAllString(strings.ToLower(text), "")
		slug = strings.ReplaceAll(slug, " ", "-")
		anchors[slug] = true
	}
	return anchors
}

func TestDocsRelativeLinksResolve(t *testing.T) {
	sources := make(map[string]string)
	for _, f := range docFiles(t) {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		sources[f] = string(b)
	}

	for file, src := range sources {
		for _, m := range mdLink.FindAllStringSubmatch(stripFenced(src), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue // external; not checked offline
			}
			path, frag, _ := strings.Cut(target, "#")

			resolved := file
			if path != "" {
				resolved = filepath.Join(filepath.Dir(file), path)
				if _, err := os.Stat(resolved); err != nil {
					t.Errorf("%s: dead link %q: %v", file, target, err)
					continue
				}
			}
			if frag == "" {
				continue
			}
			targetSrc, ok := sources[resolved]
			if !ok {
				b, err := os.ReadFile(resolved)
				if err != nil {
					t.Errorf("%s: anchor link %q: %v", file, target, err)
					continue
				}
				targetSrc = string(b)
			}
			if !headingAnchors(targetSrc)[frag] {
				t.Errorf("%s: dangling anchor %q (no heading slugs to %q in %s)",
					file, target, frag, resolved)
			}
		}
	}
}

// goCommentMD matches a markdown path named in Go comment text.
var goCommentMD = regexp.MustCompile(`[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b`)

// TestDocsGoCommentLinksResolve: every markdown file a Go comment names must
// exist, resolved from the commenting file's directory or from the
// repository root — so code cannot cite a page that was renamed or never
// written. Every .go file in the tree is read, except hidden directories and
// the benchmark's build output (bench/out).
func TestDocsGoCommentLinksResolve(t *testing.T) {
	exists := func(p string) bool { _, err := os.Stat(p); return err == nil }
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") || path == filepath.Join("bench", "out") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			for _, ref := range goCommentMD.FindAllString(cg.Text(), -1) {
				if !exists(filepath.Join(filepath.Dir(path), ref)) && !exists(ref) {
					t.Errorf("%s: comment names %s, which does not exist", fset.Position(cg.Pos()), ref)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDocsPagesExist pins the documentation contract: the four pages the
// README links to must all be present.
func TestDocsPagesExist(t *testing.T) {
	for _, page := range []string{"architecture.md", "tuning.md", "cli.md", "benchmarks.md"} {
		if _, err := os.Stat(filepath.Join("docs", page)); err != nil {
			t.Errorf("missing docs page: %v", err)
		}
	}
}
