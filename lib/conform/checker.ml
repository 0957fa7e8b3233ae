include Runner.Checker
