package analysis

import "testing"

func TestErrCritFixture(t *testing.T) {
	runFixture(t, fixtureDir("errcrit", "errfix"), "errfix", NewErrCrit("errfix"))
}
