import vqclab


def test_public_names_resolve():
    names = vqclab.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(vqclab, name)] == []
    for removed in ("FromLogical", "Synthesized", "TranspileOptions", "choose_layout"):
        assert removed not in names and not hasattr(vqclab, removed)
