module lumiere/benchmark

go 1.21

require lumiere v0.0.0

replace lumiere => ../
