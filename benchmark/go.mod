module harbor/benchmark

go 1.22

require harbor v0.0.0

replace harbor => ../
