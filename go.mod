module mira

go 1.23
