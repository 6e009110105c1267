package stream

// Guards OPERATIONS.md against drift: binds every driver's handle set and
// asserts the operator guide names each resulting driver.* metric.

import (
	"os"
	"regexp"
	"testing"

	"adjstream/internal/telemetry"
)

func TestOperationsDocCoversDriverMetrics(t *testing.T) {
	doc, err := os.ReadFile("../../OPERATIONS.md")
	if err != nil {
		t.Fatalf("read OPERATIONS.md: %v", err)
	}
	telemetry.Disable()
	reg := telemetry.Enable()
	defer telemetry.Disable()
	for _, d := range []string{"run", "broadcast"} {
		teleForDriver(d)
	}

	driverRe := regexp.MustCompile(`^driver\.(run|broadcast)\.`)
	names := reg.Names()
	if len(names) == 0 {
		t.Fatal("no metrics registered")
	}
	for _, name := range names {
		normalized := driverRe.ReplaceAllString(name, "driver.<driver>.")
		if !regexp.MustCompile("`" + regexp.QuoteMeta(normalized) + "`").Match(doc) {
			t.Errorf("metric %s (documented form `%s`) is missing from OPERATIONS.md", name, normalized)
		}
	}
}
