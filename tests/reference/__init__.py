"""Reference implementations the tests diff the shipped code against."""
