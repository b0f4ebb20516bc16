module cloudburst/benchmark

go 1.24

require cloudburst v0.0.0

replace cloudburst => ../
