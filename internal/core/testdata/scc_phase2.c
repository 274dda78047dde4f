// Classification phase 2 over a three-function SCC: driver's refcount
// behaviour depends on fa's result, fa returns fb's and fb returns fc's,
// so all three are category 2 whichever member sorts first.
//
// want driver refcount-changing
// want fa affecting
// want fb affecting
// want fc affecting

extern int pm_runtime_get_sync(struct device *dev);
extern void pm_runtime_put(struct device *dev);

int fa(int x) {
    if (x > 0)
        return fb(x - 1);
    return 0;
}

int fb(int x) {
    return fc(x);
}

int fc(int x) {
    return fa(x);
}

int driver(struct device *dev, int x) {
    pm_runtime_get_sync(dev);
    if (fa(x) < 0)
        return -1;
    pm_runtime_put(dev);
    return 0;
}
