package harness

// AttackScenario exposes the attack table's cell builder to the external
// golden test, which pins RareSync under every attack strategy.
var AttackScenario = attackScenario
