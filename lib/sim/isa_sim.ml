let run = Functional.run
